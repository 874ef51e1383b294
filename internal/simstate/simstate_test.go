package simstate

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
)

func TestNewValidatesVersion(t *testing.T) {
	if _, err := New("linux-9.99"); err == nil {
		t.Error("bogus version accepted")
	}
	st, err := New(cvedb.Versions[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != cvedb.Versions[0] || len(st.Updates) != 0 {
		t.Errorf("state: %+v", st)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "machine.json")
	st, err := New(cvedb.Versions[1])
	if err != nil {
		t.Fatal(err)
	}
	st.Updates = []string{"u1.tar"}
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != st.Version || len(got.Updates) != 1 || got.Updates[0] != "u1.tar" {
		t.Errorf("loaded: %+v", got)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("corrupt state loaded")
	}
}

// TestReplayLifecycle exercises the full tool workflow in-process: boot,
// create an update, persist it, replay the machine with the update, and
// stack a second create against the previously-patched tree.
func TestReplayLifecycle(t *testing.T) {
	dir := t.TempDir()
	c, ok := cvedb.ByID("CVE-2006-3626")
	if !ok {
		t.Fatal("missing corpus entry")
	}
	st, err := New(c.Version)
	if err != nil {
		t.Fatal(err)
	}

	// ksplice-create.
	tree, err := st.Tree()
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{Name: "ksplice-t"})
	if err != nil {
		t.Fatal(err)
	}
	tarPath := filepath.Join(dir, "ksplice-t.tar")
	f, err := os.Create(tarPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.WriteTar(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// ksplice-apply: replay then apply, persist. Non-default ApplyOptions
	// thread through the replay untouched.
	k, mgr, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	st.Updates = append(st.Updates, "ksplice-t.tar")
	statePath := filepath.Join(dir, "machine.json")
	if err := st.Save(statePath); err != nil {
		t.Fatal(err)
	}

	// A later invocation replays to the same state: the update is live.
	st2, err := Load(statePath)
	if err != nil {
		t.Fatal(err)
	}
	k2, mgr2, err := st2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(mgr2.Applied()) != 1 {
		t.Fatalf("replayed %d updates", len(mgr2.Applied()))
	}
	task, err := k2.CallAsUser(1000, c.Probe.Entry, c.Probe.Args...)
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != c.Probe.FixedResult {
		t.Errorf("replayed probe = %d, want fixed %d", task.ExitCode, c.Probe.FixedResult)
	}

	// The previously-patched tree differs from the base tree (section
	// 5.4): a stacked create must diff against it.
	tree2, err := st2.Tree()
	if err != nil {
		t.Fatal(err)
	}
	for p := range c.Fixed {
		got, _ := tree2.File(p)
		if base, _ := tree.File(p); got == base {
			t.Errorf("previously-patched tree does not include the fix in %s", p)
		}
	}
	_ = k
}

// TestLoadOrRederiveCorruptState: a torn or garbage state file is not
// fatal — the caller gets a fresh state for the release plus a
// *CorruptError to warn about; a missing file re-derives silently.
func TestLoadOrRederiveCorruptState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "machine.json")

	// Missing: fresh state, no error.
	st, err := LoadOrRederive(path, cvedb.Versions[0])
	if err != nil || st.Version != cvedb.Versions[0] || len(st.Updates) != 0 {
		t.Fatalf("missing file: state=%+v err=%v", st, err)
	}

	// Corrupt: fresh state plus a CorruptError naming the file.
	if err := os.WriteFile(path, []byte(`{"version": "sim-`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = LoadOrRederive(path, cvedb.Versions[0])
	if st == nil || st.Version != cvedb.Versions[0] {
		t.Fatalf("corrupt file did not re-derive: %+v", st)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("err = %v, want *CorruptError for %s", err, path)
	}

	// A fresh Save over the corrupt file heals it.
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrRederive(path, cvedb.Versions[0]); err != nil {
		t.Fatalf("after re-save: %v", err)
	}

	// Valid file: loaded as-is, no error.
	st.Updates = append(st.Updates, "u0.tar")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadOrRederive(path, cvedb.Versions[0])
	if err != nil || len(st2.Updates) != 1 {
		t.Fatalf("valid file: %+v, %v", st2, err)
	}
}

// TestSaveCrashPointsAtomic kills Save at each of its crash points (via
// the process-global hook — Save takes no instance hook) and asserts
// the state file is never torn: it holds either the old state or the
// new one, both parseable.
func TestSaveCrashPointsAtomic(t *testing.T) {
	for _, label := range []string{"simstate.save.tmp", "simstate.save.renamed"} {
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "machine.json")
			old, err := New(cvedb.Versions[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Save(path); err != nil {
				t.Fatal(err)
			}

			next, _ := New(cvedb.Versions[0])
			next.Updates = []string{"u0.tar"}
			plan := crashpoint.NewPlan(label, 1)
			restore := crashpoint.SetGlobal(plan.Hook())
			death := crashpoint.Catch(func() {
				if err := next.Save(path); err != nil {
					t.Error(err)
				}
			})
			restore()
			if death == nil {
				t.Fatalf("crash point %s never fired", label)
			}

			got, err := Load(path)
			if err != nil {
				t.Fatalf("state file torn after %s: %v", label, err)
			}
			switch len(got.Updates) {
			case 0:
				if label == "simstate.save.renamed" {
					t.Error("crash after rename left the old state")
				}
			case 1: // new state — only possible once the rename happened
				if label == "simstate.save.tmp" {
					t.Error("crash before rename left the new state")
				}
			default:
				t.Fatalf("state file holds %d updates", len(got.Updates))
			}
		})
	}
}
