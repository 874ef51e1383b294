// Tarball delta tests: the fresh-subscriber wire contract `make check`
// runs (-run FreshSubscribeWireContract), and the degradation matrix —
// corrupt deltas and missing delta bases fall back to full fetches
// without losing a single update.
package channel_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/faultinject"
	"gosplice/internal/kernel"
	"gosplice/internal/telemetry"
)

// publishRelease publishes every one of version's CVE fixes into a fresh
// channel directory, returning it and the published tarball bytes by
// entry name.
func publishRelease(t *testing.T, version string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	published := map[string][]byte{}
	for _, c := range cvedb.ForVersion(version) {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatalf("publish %s: %v", c.ID, err)
		}
	}
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Updates {
		b, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		published[e.Name] = b
	}
	return dir, published
}

// TestFreshSubscribeWireContract pins what a fresh subscriber pulls from
// each release's channel over HTTP: one manifest request, the first
// tarball whole, and one delta blob per later position — N−1 deltas
// applied and none abandoned — reaching the channel head with the
// published bytes. The blob route serves nothing the manifest does not
// advertise, even a file sitting in the channel's blobs/ directory.
func TestFreshSubscribeWireContract(t *testing.T) {
	for _, version := range cvedb.Versions {
		dir, published := publishRelease(t, version)
		n := len(published)

		var mu sync.Mutex
		routes := map[string]int{}
		inner := channel.NewServer(dir)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
			mu.Lock()
			routes[route]++
			mu.Unlock()
			inner.ServeHTTP(w, r)
		}))
		defer srv.Close()

		reg := telemetry.NewRegistry()
		var got [][]byte
		var names []string
		cl, err := channel.NewClient(channel.ClientConfig{
			Name:      "fresh-" + version,
			Transport: channel.NewHTTPTransport(srv.URL, channel.HTTPOptions{}),
			Registry:  reg,
			OnApplied: func(e channel.Entry, b []byte) error {
				got = append(got, append([]byte(nil), b...))
				names = append(names, e.Name)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, mgr := bootRelease(t, version)
		cl.Bind(mgr, 0)
		if _, err := cl.Sync(context.Background()); err != nil {
			t.Fatalf("%s: sync: %v", version, err)
		}
		if cl.Position() != n || len(mgr.Applied()) != n {
			t.Fatalf("%s: position %d with %d applied, want head %d", version, cl.Position(), len(mgr.Applied()), n)
		}
		for i, b := range got {
			if !bytes.Equal(b, published[names[i]]) {
				t.Errorf("%s: %s applied from bytes differing from the published tarball", version, names[i])
			}
		}
		want := map[string]int{"channel.json": 1, "updates": 1, "blob": n - 1}
		if !reflect.DeepEqual(routes, want) {
			t.Errorf("%s: requests by route %v, want %v", version, routes, want)
		}
		snap := reg.Snapshot()
		if d := snap.CounterFamily("gosplice_channel_delta_applied_total"); d != uint64(n-1) {
			t.Errorf("%s: %d deltas applied, want %d", version, d, n-1)
		}
		if f := snap.CounterFamily(channel.MetricDeltaFallback); f != 0 {
			t.Errorf("%s: %d delta fallbacks on a clean channel, want 0", version, f)
		}

		// A blob the manifest does not name is never served — not a
		// digest nobody published, and not a file planted in blobs/.
		planted := []byte("not advertised by the manifest")
		digest, _ := core.TarDigest(planted)
		if err := os.WriteFile(filepath.Join(dir, "blobs", digest), planted, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{digest, strings.Repeat("0", 64)} {
			resp, err := http.Get(srv.URL + "/blob/" + d)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: /blob/%.12s… answered %d, want 404", version, d, resp.StatusCode)
			}
		}
	}
}

// TestSubscribeDeltaCorruptFallsBackFull: a delta blob corrupted in
// flight is detected before any reconstructed byte is trusted; the entry
// is fetched whole instead, and later entries still use their deltas.
func TestSubscribeDeltaCorruptFallsBackFull(t *testing.T) {
	version := cvedb.Versions[1]
	dir, published := publishRelease(t, version)
	reg := telemetry.Default()
	before := reg.Snapshot()

	// Subscriber op sequence (1-based): Manifest=1, entry0 Fetch=2,
	// entry1 delta FetchBlob=3 — corrupt that one.
	plan := faultinject.New(faultinject.Fault{Op: 3, Kind: faultinject.FlipBit, Offset: 30, Bit: 6})
	tr := faultinject.WrapTransport(channel.NewDirTransport(dir), plan)
	_, mgr := bootRelease(t, version)
	var got [][]byte
	var names []string
	applied, err := channel.SyncOnce(context.Background(), tr, mgr, 0, channel.ClientConfig{
		OnApplied: func(e channel.Entry, b []byte) error {
			got = append(got, append([]byte(nil), b...))
			names = append(names, e.Name)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("subscribe under delta corruption: %v", err)
	}
	if want := len(cvedb.ForVersion(version)); len(applied) != want {
		t.Fatalf("applied %d of %d", len(applied), want)
	}
	for i, b := range got {
		if !bytes.Equal(b, published[names[i]]) {
			t.Fatalf("%s applied from bytes differing from the published tarball", names[i])
		}
	}
	after := reg.Snapshot()
	delta := func(id string) uint64 { return after.Counter(id) - before.Counter(id) }
	if delta("gosplice_channel_delta_fallback_full_total") == 0 {
		t.Error("corrupt delta did not count a full-fetch fallback")
	}
	if delta("gosplice_channel_delta_applied_total") == 0 {
		t.Error("no later entry reconstructed from a delta")
	}
	if injected(plan, faultinject.FlipBit) == 0 {
		t.Error("the corrupting fault never fired — the test proved nothing")
	}
}

// TestSubscribeMissingBaseFallsBackFull: a subscriber with no delta
// bases at all (nothing cached) silently fetches everything whole.
func TestSubscribeMissingBaseFallsBackFull(t *testing.T) {
	version := cvedb.Versions[2]
	dir, _ := publishRelease(t, version)
	reg := telemetry.Default()
	before := reg.Snapshot()
	_, mgr := bootRelease(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, 0, channel.ClientConfig{
		Blobs: nullBlobCache{},
	})
	if err != nil {
		t.Fatalf("subscribe with no delta bases: %v", err)
	}
	if want := len(cvedb.ForVersion(version)); len(applied) != want {
		t.Fatalf("applied %d of %d", len(applied), want)
	}
	after := reg.Snapshot()
	delta := func(id string) uint64 { return after.Counter(id) - before.Counter(id) }
	if delta("gosplice_channel_delta_applied_total") != 0 {
		t.Error("a delta applied with no base to apply it against")
	}
	if delta("gosplice_channel_delta_fallback_full_total") == 0 {
		t.Error("missing bases never counted a fallback")
	}
}

// TestPublisherResumeContinuesDeltas: a publisher reopened over an
// existing channel keeps the delta chain — the new position deltas
// against the last old one.
func TestPublisherResumeContinuesDeltas(t *testing.T) {
	version := cvedb.Versions[3]
	cves := cvedb.ForVersion(version)
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cves[:2] {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}

	pub2, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub2.Publish("ksplice-"+cves[2].ID, cves[2].ID, cves[2].Patch()); err != nil {
		t.Fatal(err)
	}
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Updates) != 3 {
		t.Fatalf("resumed channel has %d updates, want 3", len(m.Updates))
	}
	// The position-3 tarball must delta against position 2 across the
	// publisher restart.
	if d := m.DeltaFor(m.Updates[2].Sha256); d == nil {
		t.Error("no tarball delta advertised across the publisher restart")
	} else if d.BaseSha256 != m.Updates[1].Sha256 {
		t.Error("post-resume tarball delta does not base on the previous position")
	}
	subscribeHead(t, dir, version, 3)
}

// subscribeHead asserts a clean dir subscribe applies exactly want
// updates.
func subscribeHead(t *testing.T, dir, version string, want int) {
	t.Helper()
	_, mgr := bootRelease(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, 0, channel.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != want {
		t.Fatalf("subscribed %d of %d", len(applied), want)
	}
}

// bootRelease boots a vulnerable machine for version.
func bootRelease(t *testing.T, version string) (*kernel.Kernel, *core.Manager) {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	return k, core.NewManager(k)
}
