// Package atomicfile is the one durable-replace path in gosplice. Every
// file the system persists — artifact-store objects, blob-cache
// entries, journal compactions, machine state files, channel tarballs,
// blobs and manifests, signing keys — is written by Write: a temp file
// in the destination directory, fsynced, then renamed over the target.
// A process killed at any instant therefore leaves the old file or the
// new one, never a torn one, plus at worst a stray ".tmp-" file that
// SweepTemps reclaims.
//
// Each call site declares its crash points once with Point, so every
// durable write sits in the crash-point catalog and the sweep tests
// reach it (see internal/crashpoint).
package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"gosplice/internal/crashpoint"
)

// tempPrefix starts the name of every temp file Write creates; it is
// what SweepTemps looks for.
const tempPrefix = ".tmp-"

// Labels is one write site's pair of crash points: Tmp fires once the
// temp file is durable but not yet renamed, Renamed once the rename has
// installed it.
type Labels struct{ Tmp, Renamed string }

// Point registers name+".tmp" and name+".renamed" in the crash-point
// catalog and returns them. Call sites declare their points at package
// level, e.g. `var cpSave = atomicfile.Point("simstate.save")`.
func Point(name string) Labels {
	return Labels{Tmp: crashpoint.L(name + ".tmp"), Renamed: crashpoint.L(name + ".renamed")}
}

// Write replaces path with b durably: it writes a temp file in path's
// directory, fsyncs and closes it, sets mode, fires p.Tmp, renames it
// over path, then fires p.Renamed. hook receives the crash points (nil
// falls back to the process-global hook). On error the temp file is
// removed and path is untouched.
func Write(path string, b []byte, mode os.FileMode, hook crashpoint.Hook, p Labels) error {
	f, err := os.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, mode)
	}
	if err == nil {
		crashpoint.Fire(hook, p.Tmp)
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	crashpoint.Fire(hook, p.Renamed)
	return nil
}

// SweepTemps removes the temp files crashed writers left directly in
// dir (not in its subdirectories) once they are older than olderThan.
// Zero removes them all — right for a directory only one process
// writes; a shared directory passes a grace period so a live writer's
// temp file is spared.
func SweepTemps(dir string, olderThan time.Duration) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		if olderThan > 0 {
			if info, err := e.Info(); err != nil || time.Since(info.ModTime()) <= olderThan {
				continue
			}
		}
		os.Remove(filepath.Join(dir, e.Name()))
	}
}
