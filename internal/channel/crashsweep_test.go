package channel

// The crash-point sweep: a subscriber is killed at every labeled crash
// point on its persistence paths (journal appends and compactions, and
// the blob cache's store writes), then "rebooted" — a fresh kernel, a fresh client
// over the same state dir — and recovered through RestoreMachine. For
// every (label, nth-hit) pair the swept machine must converge to the
// channel head with memory byte-identical to a machine that never
// crashed. A discovery pass with a crashpoint.Counter learns which
// labels the scenario hits and how often, so the sweep is exhaustive
// by construction: every crash point the client's write paths reach is
// swept automatically, and a channel.* label the scenario never reaches
// fails the test rather than silently shrinking coverage.
//
// The power-loss sweep reruns every cell with a power cut after the
// death: the journal keeps only what its last fsync made durable and
// every blob-cache entry, none of which is fsynced, is lost. The
// rebooted machine must still converge byte-identically.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// sweepUpdates is how many updates the sweep channel carries — enough
// that every journal op fires several times, small enough that the full
// label × hit matrix stays fast.
const sweepUpdates = 3

// publishSweep builds an n-update channel for version.
func publishSweep(t *testing.T, version string, n int) string {
	t.Helper()
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)
	if len(cves) < n {
		t.Fatalf("version %s has only %d CVEs, want %d", version, len(cves), n)
	}
	for i := 0; i < n; i++ {
		if _, err := pub.Publish(cves[i].ID, cves[i].ID, cves[i].Patch()); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// memHash fingerprints the kernel's entire memory. Taken before any
// probes or stress runs — those mutate memory — so two machines that
// applied the same update sequence onto fresh boots hash identically.
func memHash(k *kernel.Kernel) [32]byte {
	k.Lock()
	defer k.Unlock()
	return sha256.Sum256(k.LockedMem().Bytes())
}

// sweepAttempt boots a fresh kernel over stateDir and drives it through
// the whole subscriber lifecycle — RestoreMachine then Sync — under the
// given crash hook. It returns the kernel, the position reached, the
// death if the hook fired, and the journal's length at its last fsync
// when the attempt ended. The client is closed either way; on death,
// everything in memory is abandoned exactly as a real process kill
// would abandon it, leaving only the state dir behind.
func sweepAttempt(t *testing.T, chanDir, stateDir, version string, hook crashpoint.Hook) (*kernel.Kernel, int, *crashpoint.Death, int64) {
	t.Helper()
	k, err := kernel.Boot(cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	cl, err := NewClient(ClientConfig{
		Name:      "sweep",
		Transport: NewDirTransport(chanDir),
		StateDir:  stateDir,
		Crash:     hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	death := crashpoint.Catch(func() {
		if _, err := cl.RestoreMachine(ctx, mgr, 0); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if _, err := cl.Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	return k, cl.Position(), death, cl.state.DurableLenForTest()
}

// powerLoss cuts the power under a state dir whose process just died:
// the apply journal falls back to its length at the last fsync, and
// every blob-cache entry is lost — alternately zero-filled and
// emptied, the two shapes an unsynced file takes after a power loss.
// A death right after a compaction's rename still reports the old
// journal's length, which models the unsynced rename itself being lost.
func powerLoss(t *testing.T, stateDir string, durable int64) {
	t.Helper()
	if fi, err := os.Stat(JournalPath(stateDir)); err == nil && fi.Size() > durable {
		if err := os.Truncate(JournalPath(stateDir), durable); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := filepath.WalkDir(filepath.Join(stateDir, "blob-cache"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		n++
		if n%2 == 0 {
			return os.Truncate(path, 0)
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		return os.WriteFile(path, make([]byte, fi.Size()), 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sweepSetup publishes the sweep channel, runs the never-crashed
// reference machine (twice, to prove its memory hash is deterministic)
// and a discovery pass. It returns the channel, the reference hash and
// the hits per crash-point label, failing if the scenario stops
// reaching a channel.* label or covers fewer than 26 cells.
func sweepSetup(t *testing.T, version string) (string, [32]byte, map[string]int) {
	t.Helper()
	chanDir := publishSweep(t, version, sweepUpdates)

	// Reference machine: never crashes. Its memory hash is the target
	// every swept machine must reproduce.
	refK, refPos, refDeath, _ := sweepAttempt(t, chanDir, t.TempDir(), version, nil)
	if refDeath != nil {
		t.Fatalf("reference run died: %v", refDeath)
	}
	if refPos != sweepUpdates {
		t.Fatalf("reference position %d, want head %d", refPos, sweepUpdates)
	}
	refHash := memHash(refK)

	// Determinism check: a second clean machine must hash identically,
	// or byte-identity below would be meaningless.
	k2, _, _, _ := sweepAttempt(t, chanDir, t.TempDir(), version, nil)
	if memHash(k2) != refHash {
		t.Fatal("two clean runs hash differently — kernel boot or apply is nondeterministic")
	}

	// Discovery: count how often the scenario hits each label.
	counter := crashpoint.NewCounter()
	sweepAttempt(t, chanDir, t.TempDir(), version, counter.Hook())
	counts := counter.Counts()

	for _, label := range crashpoint.Catalog() {
		if strings.HasPrefix(label, "channel.") && counts[label] == 0 {
			t.Errorf("scenario never reaches crash point %s — sweep coverage shrank", label)
		}
	}
	cells := 0
	for _, hits := range counts {
		cells += hits
	}
	// Journal appends and compactions plus the blob cache's writes: the
	// sweep must never cover fewer cells than it did before the blob cache
	// moved onto the store.
	if cells < 26 {
		t.Errorf("sweep covers %d (label × hit) cells, want at least 26", cells)
	}
	return chanDir, refHash, counts
}

// sweepCells calls run, as a subtest named label/n, for every cell of
// the discovered label × hit matrix.
func sweepCells(t *testing.T, counts map[string]int, run func(t *testing.T, label string, n int)) {
	labels := make([]string, 0, len(counts))
	for label := range counts {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		for n := 1; n <= counts[label]; n++ {
			t.Run(fmt.Sprintf("%s/%d", label, n), func(t *testing.T) { run(t, label, n) })
		}
	}
}

// TestCrashPointSweep is the exhaustive sweep: every crash point the
// client reaches × every hit count, one release.
func TestCrashPointSweep(t *testing.T) {
	version := cvedb.Versions[0]
	chanDir, refHash, counts := sweepSetup(t, version)
	sweepCells(t, counts, func(t *testing.T, label string, n int) {
		stateDir := t.TempDir()
		plan := crashpoint.NewPlan(label, n)
		hook := plan.Hook()

		// Attempt: must die at the scheduled point.
		_, _, death, _ := sweepAttempt(t, chanDir, stateDir, version, hook)
		if death == nil {
			t.Fatalf("plan %s hit %d never fired", label, n)
		}
		if death.Label != label {
			t.Fatalf("died at %s, scheduled %s", death.Label, label)
		}

		// Reboot: fresh kernel, fresh client, same state dir, same
		// (now inert) hook. Recovery must converge to the head.
		k, pos, again, _ := sweepAttempt(t, chanDir, stateDir, version, hook)
		if again != nil {
			t.Fatalf("recovery run died again: %v", again)
		}
		if pos != sweepUpdates {
			t.Fatalf("recovered to position %d, want head %d", pos, sweepUpdates)
		}
		if memHash(k) != refHash {
			t.Fatalf("recovered kernel memory differs from the never-crashed reference")
		}

		// A third boot over the same state dir replays the journal
		// alone (everything is committed now) and still matches.
		k3, pos3, _, _ := sweepAttempt(t, chanDir, stateDir, version, nil)
		if pos3 != sweepUpdates || memHash(k3) != refHash {
			t.Fatalf("second reboot diverged: position %d", pos3)
		}
	})
}

// TestPowerLossSweep is the sweep again with a power cut after each
// death: every write the subscriber did not fsync is lost. A power loss
// reboots the kernel too, so the journal losing its unflushed records
// must only cost replays — never convergence or byte-identity.
func TestPowerLossSweep(t *testing.T) {
	version := cvedb.Versions[0]
	chanDir, refHash, counts := sweepSetup(t, version)
	sweepCells(t, counts, func(t *testing.T, label string, n int) {
		stateDir := t.TempDir()
		_, _, death, durable := sweepAttempt(t, chanDir, stateDir, version, crashpoint.NewPlan(label, n).Hook())
		if death == nil || death.Label != label {
			t.Fatalf("scheduled death at %s hit %d, got %v", label, n, death)
		}
		powerLoss(t, stateDir, durable)

		k, pos, again, _ := sweepAttempt(t, chanDir, stateDir, version, nil)
		if again != nil {
			t.Fatalf("recovery run died: %v", again)
		}
		if pos != sweepUpdates {
			t.Fatalf("recovered to position %d, want head %d", pos, sweepUpdates)
		}
		if memHash(k) != refHash {
			t.Fatalf("recovered kernel memory differs from the never-crashed reference")
		}
	})
}

// TestClientCorruptStateRederives is the satellite regression test: a
// client whose journal is garbage must open (warn, not fail), report
// Corrupt, and converge from position zero.
func TestClientCorruptStateRederives(t *testing.T) {
	version := cvedb.Versions[0]
	chanDir := publishSweep(t, version, sweepUpdates)
	stateDir := t.TempDir()

	// A converged machine first, so the state dir holds a real journal.
	sweepAttempt(t, chanDir, stateDir, version, nil)

	// Scribble over it.
	if err := os.WriteFile(JournalPath(stateDir), []byte("\x00\xff not a journal\n{half"), 0o644); err != nil {
		t.Fatal(err)
	}

	k, err := kernel.Boot(cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	cl, err := NewClient(ClientConfig{
		Name:      "corrupt",
		Transport: NewDirTransport(chanDir),
		StateDir:  stateDir,
	})
	if err != nil {
		t.Fatalf("NewClient over a corrupt journal: %v", err)
	}
	defer cl.Close()
	rec := cl.Recovery()
	if !rec.Corrupt || rec.Position != 0 {
		t.Fatalf("recovery = %+v, want Corrupt at position 0", rec)
	}
	ctx := context.Background()
	if _, err := cl.RestoreMachine(ctx, mgr, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.Position() != sweepUpdates {
		t.Fatalf("position %d after re-derive, want %d", cl.Position(), sweepUpdates)
	}
	// The degrade is visible in telemetry.
	snap := cl.Registry().Snapshot()
	if snap.CounterFamily(MetricTornState) == 0 {
		t.Error("torn-state counter did not record the corrupt journal")
	}
	if snap.CounterFamily(MetricRecoveries) == 0 {
		t.Error("recoveries counter did not record the restore")
	}
}

// publishRest reopens the channel in dir and publishes whatever of the
// sweep's updates its manifest does not name yet — a publisher's restart
// after a crash.
func publishRest(t *testing.T, dir, version string) {
	t.Helper()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cves := cvedb.ForVersion(version)
	for i := len(pub.manifest.Updates); i < sweepUpdates; i++ {
		if _, err := pub.Publish(cves[i].ID, cves[i].ID, cves[i].Patch()); err != nil {
			t.Fatalf("publish %s: %v", cves[i].ID, err)
		}
	}
}

// channelFiles reads every file under a channel directory, keyed by its
// relative path — stray temp files included, so they break equality.
func channelFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPublisherCrashSweep kills a publish at every publish.* crash point
// × every hit count, restarts the publisher over the surviving directory,
// and finishes the channel. The manifest, every tarball and every delta
// blob must come out byte-identical to a publish that never crashed, with
// no stray temp file left behind.
func TestPublisherCrashSweep(t *testing.T) {
	version := cvedb.Versions[0]

	// Reference publish, counting the crash points it passes.
	counter := crashpoint.NewCounter()
	refDir := t.TempDir()
	restore := crashpoint.SetGlobal(counter.Hook())
	publishRest(t, refDir, version)
	restore()
	want := channelFiles(t, refDir)

	counts := counter.Counts()
	var labels []string
	for label := range counts {
		if strings.HasPrefix(label, "publish.") {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	if len(labels) == 0 {
		t.Fatal("a publish passed no publish.* crash point")
	}
	for _, label := range labels {
		for n := 1; n <= counts[label]; n++ {
			label, n := label, n
			t.Run(fmt.Sprintf("%s/%d", label, n), func(t *testing.T) {
				dir := t.TempDir()
				restore := crashpoint.SetGlobal(crashpoint.NewPlan(label, n).Hook())
				death := crashpoint.Catch(func() { publishRest(t, dir, version) })
				restore()
				if death == nil || death.Label != label {
					t.Fatalf("scheduled death at %s hit %d, got %v", label, n, death)
				}
				publishRest(t, dir, version)
				got := channelFiles(t, dir)
				for name := range got {
					if want[name] == "" {
						t.Errorf("%s: not in a never-crashed channel", name)
					}
				}
				for name, b := range want {
					if got[name] != b {
						t.Errorf("%s differs from a never-crashed publish", name)
					}
				}
			})
		}
	}
}
