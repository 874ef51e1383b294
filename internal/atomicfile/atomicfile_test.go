package atomicfile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gosplice/internal/crashpoint"
)

var cpTest = Point("atomicfile.test")

// temps lists the temp files in dir.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tempPrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestWriteReplacesAndHonoursMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, mode := range []os.FileMode{0o600, 0o644} {
		want := []byte("mode " + mode.String())
		if err := Write(path, want, mode, nil, cpTest); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != mode {
			t.Errorf("mode %v, want %v", fi.Mode().Perm(), mode)
		}
	}
	if ts := temps(t, dir); len(ts) != 0 {
		t.Errorf("temp files left after clean writes: %v", ts)
	}
}

// TestWriteCrashPoints: a death at either label leaves the old file or
// the new one, never a torn file — old before the rename, new after.
func TestWriteCrashPoints(t *testing.T) {
	old, next := []byte("old contents"), []byte("new, longer contents")
	for _, tc := range []struct {
		label string
		want  []byte
	}{
		{cpTest.Tmp, old},
		{cpTest.Renamed, next},
	} {
		t.Run(tc.label, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if err := Write(path, old, 0o644, nil, cpTest); err != nil {
				t.Fatal(err)
			}
			death := crashpoint.Catch(func() {
				Write(path, next, 0o644, crashpoint.NewPlan(tc.label, 1).Hook(), cpTest)
			})
			if death == nil {
				t.Fatalf("crash point %s never fired", tc.label)
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, tc.want) {
				t.Fatalf("after death at %s: %q, %v; want %q", tc.label, got, err, tc.want)
			}
			// The only residue of a death before the rename is a temp file,
			// which a sweep reclaims.
			SweepTemps(dir, 0)
			if ts := temps(t, dir); len(ts) != 0 {
				t.Errorf("sweep left %v", ts)
			}
		})
	}
}

// TestWriteFailureLeavesNoTemp: a write that fails after creating its temp
// file (here, the rename onto a directory) removes the temp file and
// leaves the target alone.
func TestWriteFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(target, []byte("x"), 0o644, nil, cpTest); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if ts := temps(t, dir); len(ts) != 0 {
		t.Errorf("failed write left %v", ts)
	}
	if fi, err := os.Stat(target); err != nil || !fi.IsDir() {
		t.Errorf("target disturbed by a failed write: %v", err)
	}
	if err := Write(filepath.Join(dir, "missing", "f"), []byte("x"), 0o644, nil, cpTest); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

// TestSweepTempsObeysOlderThan: only temp files past the grace period go;
// other files and subdirectories are never touched.
func TestSweepTempsObeysOlderThan(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, age time.Duration) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(-age)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
		return p
	}
	stale := write(".tmp-stale", time.Hour)
	fresh := write(".tmp-fresh", 0)
	kept := write("real", time.Hour)
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	nested := filepath.Join(sub, ".tmp-nested")
	if err := os.WriteFile(nested, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }

	SweepTemps(dir, time.Minute)
	if exists(stale) || !exists(fresh) || !exists(kept) || !exists(nested) {
		t.Fatalf("after a one-minute sweep: stale=%v fresh=%v kept=%v nested=%v, want false true true true",
			exists(stale), exists(fresh), exists(kept), exists(nested))
	}
	SweepTemps(dir, 0)
	if exists(fresh) || !exists(kept) || !exists(nested) {
		t.Fatalf("after a zero sweep: fresh=%v kept=%v nested=%v, want false true true",
			exists(fresh), exists(kept), exists(nested))
	}
	SweepTemps(filepath.Join(dir, "missing"), 0) // a missing dir is a no-op
}
