package channel

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gosplice/internal/atomicfile"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/diffutil"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
)

// blockedServer always answers 503, pinning any client in its
// retry/backoff schedule.
func blockedServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv, &reqs
}

// TestBackoffInterruptedByCancel: the retry backoff selects on the
// context, so a cancelled client abandons a minutes-long backoff
// schedule in milliseconds. Before the backoff honoured cancellation,
// this test hung for the full 30-second sleep.
func TestBackoffInterruptedByCancel(t *testing.T) {
	srv, reqs := blockedServer(t)
	tr := NewHTTPTransport(srv.URL, HTTPOptions{
		Timeout:    5 * time.Second,
		MaxRetries: 5,
		Backoff:    30 * time.Second, // would sleep ~30s before the first retry
		Seed:       1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := tr.Manifest(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s — the backoff slept through it", elapsed)
	}
	if n := reqs.Load(); n != 1 {
		t.Errorf("%d requests before cancel, want 1 (cancel landed mid-backoff)", n)
	}
}

// TestSubscribeCancelMidBackoff: a Sync blocked on an unreachable
// tarball degrades to a PositionError wrapping the context's error as
// soon as the caller cancels — it does not sleep out the transport's
// backoff schedule first.
func TestSubscribeCancelMidBackoff(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, _ := publishOne(t, version)
	inner := NewServer(dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/updates/") || strings.HasPrefix(r.URL.Path, "/blob/") {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTPTransport(srv.URL, HTTPOptions{
		Timeout:    5 * time.Second,
		MaxRetries: 5,
		Backoff:    30 * time.Second,
		Seed:       1,
	})
	_, mgr := bootManager(t, version)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	applied, err := SyncOnce(ctx, tr, mgr, 0, ClientConfig{})
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled subscribe returned after %s", elapsed)
	}
	pe, ok := IsPosition(err)
	if !ok {
		t.Fatalf("err = %v, want PositionError", err)
	}
	if pe.Position != 0 || len(applied) != 0 {
		t.Errorf("position %d with %d applied, want a clean stop at 0", pe.Position, len(applied))
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("PositionError does not wrap context.Canceled: %v", err)
	}
	if len(mgr.Applied()) != 0 {
		t.Errorf("%d updates live after a cancelled subscribe", len(mgr.Applied()))
	}
}

// TestClientCloseCancelsSync: Close aborts an in-flight Sync mid-backoff
// and refuses syncs afterwards; the recorded position stays consistent.
func TestClientCloseCancelsSync(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, _ := publishOne(t, version)
	inner := NewServer(dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/updates/") {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl, err := NewClient(ClientConfig{
		Name: "close-test",
		Transport: NewHTTPTransport(srv.URL, HTTPOptions{
			Timeout:    5 * time.Second,
			MaxRetries: 5,
			Backoff:    30 * time.Second,
			Seed:       1,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, mgr := bootManager(t, version)
	cl.Bind(mgr, 0)

	done := make(chan error, 1)
	go func() {
		_, err := cl.Sync(context.Background())
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cl.Close()
	select {
	case err := <-done:
		if _, ok := IsPosition(err); !ok {
			t.Fatalf("interrupted sync returned %v, want PositionError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("interrupted sync does not wrap context.Canceled: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the in-flight Sync")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %s to land", d)
	}
	if cl.Position() != 0 {
		t.Errorf("position %d after an interrupted sync at 0", cl.Position())
	}
	if _, err := cl.Sync(context.Background()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Sync on a closed client: %v, want a closed error", err)
	}
}

// TestClientSyncAndRollback: the happy path — a client syncs a machine
// to head, records its position, and Rollback pulls every update back
// out but never past the position the machine was bound at.
func TestClientSyncAndRollback(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)[:3]
	for i, c := range cves {
		if _, err := pub.Publish(fmt.Sprintf("u%d", i), c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}

	// The machine already runs the first update when the client binds it:
	// position 1 is the rollback floor.
	k, mgr := bootManager(t, version)
	if _, err := SyncOnce(context.Background(), NewDirTransport(dir), mgr, 0, ClientConfig{}); err == nil {
		// Head is 3; this synced everything. Undo back to 1 so the client
		// starts mid-channel.
		for i := 0; i < 2; i++ {
			if err := mgr.Undo(core.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		t.Fatal(err)
	}

	cl, err := NewClient(ClientConfig{
		Name:      "rollback-test",
		Transport: NewDirTransport(dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Bind(mgr, 1)
	applied, err := cl.Sync(context.Background())
	if err != nil || len(applied) != 2 {
		t.Fatalf("sync from position 1: %d applied, err=%v", len(applied), err)
	}
	if cl.Position() != 3 {
		t.Fatalf("position %d after sync, want 3", cl.Position())
	}
	if got := runProbe(t, k, cves[2]); got != cves[2].Probe.FixedResult {
		t.Errorf("u2 probe = %d, want fixed %d", got, cves[2].Probe.FixedResult)
	}

	// Rollback to 0 floors at the bind position 1: exactly u2 and u1 come
	// back out, and u0 — applied before this client owned the machine —
	// stays live.
	n, err := cl.Rollback(0)
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if n != 2 || cl.Position() != 1 {
		t.Fatalf("rolled back %d to position %d, want 2 undos down to the floor 1", n, cl.Position())
	}
	if live := len(mgr.Applied()); live != 1 {
		t.Fatalf("%d updates live after rollback, want 1 (the pre-bind one)", live)
	}
	if got := runProbe(t, k, cves[0]); got != cves[0].Probe.FixedResult {
		t.Errorf("u0 probe = %d, want still-fixed %d (below the floor)", got, cves[0].Probe.FixedResult)
	}
	if bad, err := k.Call("stress_main", 50); err != nil || bad != 0 {
		t.Errorf("stress after rollback: %d, %v", bad, err)
	}
}

// TestClientTracksUpdatesWhoseLateHooksFail: a post_apply hook fails
// after the splice is live and a post_reverse hook fails after the
// original code is back. Either way the machine changed, so the client's
// position, journal and applied count follow the machine, and the pass
// stops with the hook's error.
func TestClientTracksUpdatesWhoseLateHooksFail(t *testing.T) {
	vuln := func(fn string) string { return "int " + fn + "(int x) { return x + 1; }\n" }
	hooked := func(fn, kind string) string {
		return "int " + fn + `(int x) { return x + 2; }
void ` + fn + `_hook(void) {
	int *p = (int *)0;
	*p = 1;
}
ksplice_` + kind + "(" + fn + "_hook);\n"
	}
	files := kernel.Lib()
	files["a.mc"], files["b.mc"] = vuln("victim_a"), vuln("victim_b")
	tree := srctree.New("late-hooks-1.0", files)
	dir := t.TempDir()
	pub, err := NewPublisher(dir, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("post-apply", "", diffutil.DiffFiles("a.mc", files["a.mc"], hooked("victim_a", "post_apply"))); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("post-reverse", "", diffutil.DiffFiles("b.mc", files["b.mc"], hooked("victim_b", "post_reverse"))); err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(tree)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	cl, err := NewClient(ClientConfig{Name: "late-hooks", Transport: NewDirTransport(dir), StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Bind(mgr, 0)

	applied, err := cl.Sync(context.Background())
	if pe, ok := IsPosition(err); !ok || pe.Position != 1 || !strings.Contains(err.Error(), "post_apply hook failed") {
		t.Fatalf("sync over a failing post_apply hook: %v", err)
	}
	if len(applied) != 1 || cl.Position() != 1 || len(mgr.Applied()) != 1 {
		t.Fatalf("%d applied, position %d, %d live; want the live update counted", len(applied), cl.Position(), len(mgr.Applied()))
	}
	if n := cl.Registry().Snapshot().CounterFamily(MetricApplied); n != 1 {
		t.Errorf("applied counter %d, want 1", n)
	}
	if applied, err := cl.Sync(context.Background()); err != nil || len(applied) != 1 || cl.Position() != 2 {
		t.Fatalf("second sync: %d applied to position %d, %v", len(applied), cl.Position(), err)
	}

	n, err := cl.Rollback(0)
	if err == nil || !strings.Contains(err.Error(), "post_reverse hook failed") || n != 1 || cl.Position() != 1 || len(mgr.Applied()) != 1 {
		t.Fatalf("rollback over a failing post_reverse hook: %d undone to position %d, %d live, %v", n, cl.Position(), len(mgr.Applied()), err)
	}
	if n, err := cl.Rollback(0); err != nil || n != 1 || cl.Position() != 0 || len(mgr.Applied()) != 0 {
		t.Fatalf("second rollback: %d undone to position %d, %v", n, cl.Position(), err)
	}
}

// TestConcurrentSyncsApplyEachEntryOnce: two Syncs racing on one client
// apply every channel entry exactly once. The second pass waits for the
// first and finds the machine at the head, rather than starting from
// the same position and applying an entry twice (or tripping run-pre on
// an entry the other pass already spliced in).
func TestConcurrentSyncsApplyEachEntryOnce(t *testing.T) {
	const updates, trials = 4, 20
	version := cvedb.Versions[0]
	dir := publishSweep(t, version, updates)
	for trial := 0; trial < trials; trial++ {
		_, mgr := bootManager(t, version)
		cl, err := NewClient(ClientConfig{Name: "concurrent", Transport: NewDirTransport(dir)})
		if err != nil {
			t.Fatal(err)
		}
		cl.Bind(mgr, 0)
		type result struct {
			applied int
			err     error
		}
		results := make(chan result, 2)
		for i := 0; i < 2; i++ {
			go func() {
				applied, err := cl.Sync(context.Background())
				results <- result{len(applied), err}
			}()
		}
		total := 0
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil {
				t.Fatalf("trial %d: sync: %v", trial, r.err)
			}
			total += r.applied
		}
		cl.Close()
		if n, pos := len(mgr.Applied()), cl.Position(); n != updates || pos != updates || total != updates {
			t.Fatalf("trial %d: manager runs %d updates at position %d after %d applies, want all %d",
				trial, n, pos, total, updates)
		}
	}
}

// TestTransportCountsIntoIssuingClient: the HTTP transport's retries
// land in the registry of the client whose Sync made them, with no
// registry wired into the transport itself.
func TestTransportCountsIntoIssuingClient(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _, _ := publishOne(t, version)
	inner := NewServer(dir)
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reqs.Add(1) == 1 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl, err := NewClient(ClientConfig{
		Name:      "retry-attribution",
		Transport: NewHTTPTransport(srv.URL, HTTPOptions{Backoff: time.Millisecond, Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, mgr := bootManager(t, version)
	cl.Bind(mgr, 0)
	if _, err := cl.Sync(context.Background()); err != nil {
		t.Fatalf("sync through one 503: %v", err)
	}
	if n := cl.Registry().Snapshot().Counter("gosplice_channel_client_retries_total"); n < 1 {
		t.Errorf("client registry counts %d transport retries, want >= 1", n)
	}
}

// TestFreshSubscribeFsyncs pins what durability costs a fresh
// subscriber: Bind's compaction and one group commit for the whole
// Sync are its only fsyncs. Its blob-cache entries verify themselves on
// read, so none of them is fsynced. A Sync with nothing to apply
// fsyncs nothing, and a Rollback pass flushes its undo records once.
func TestFreshSubscribeFsyncs(t *testing.T) {
	const updates = 4
	version := cvedb.Versions[0]
	dir := publishSweep(t, version, updates)
	stateDir := t.TempDir()
	cacheDir := filepath.Join(stateDir, "blob-cache") + string(filepath.Separator)

	var journal, cache, other int
	defer func(orig func(*os.File) error) { atomicfile.Fsync = orig }(atomicfile.Fsync)
	atomicfile.Fsync = func(f *os.File) error {
		switch name := f.Name(); {
		case strings.HasPrefix(name, cacheDir):
			cache++
		case filepath.Dir(name) == stateDir:
			journal++ // the journal itself, or a compaction's temp file
		default:
			other++
		}
		return f.Sync()
	}
	count := func(step string, wantJournal int) {
		t.Helper()
		if journal != wantJournal || cache != 0 || other != 0 {
			t.Errorf("%s: %d journal, %d blob-cache and %d other fsyncs; want %d, 0 and 0",
				step, journal, cache, other, wantJournal)
		}
		journal, cache, other = 0, 0, 0
	}

	cl, err := NewClient(ClientConfig{Name: "fsyncs", Transport: NewDirTransport(dir), StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, mgr := bootManager(t, version)
	cl.Bind(mgr, 0)
	count("bind", 1)
	if applied, err := cl.Sync(context.Background()); err != nil || len(applied) != updates {
		t.Fatalf("sync applied %d, %v; want %d", len(applied), err, updates)
	}
	count("fresh sync", 1)
	blobs, err := os.ReadDir(filepath.Join(cacheDir, "objects", blobNS))
	if err != nil || len(blobs) < updates {
		t.Fatalf("blob cache holds %d entries (%v), want at least %d", len(blobs), err, updates)
	}
	if _, err := cl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	count("up-to-date sync", 0)
	if n, err := cl.Rollback(updates - 2); err != nil || n != 2 {
		t.Fatalf("rollback undid %d, %v; want 2", n, err)
	}
	count("rollback", 1)
}
