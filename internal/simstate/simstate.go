// Package simstate persists simulated machines across tool invocations.
//
// A machine is fully determined by its boot source (a corpus kernel
// release) and the ordered list of hot updates applied to it, because the
// simulator is deterministic. The tools therefore persist exactly that —
// a small JSON state file naming the release and the update tarballs —
// and reconstruct the running machine by replaying it. ksplice-apply adds
// a tarball to the list; ksplice-undo removes the newest.
package simstate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gosplice/internal/atomicfile"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
)

// Crash points on the state file's write path.
var cpSave = atomicfile.Point("simstate.save")

// State is the persisted machine description.
type State struct {
	// Version is the corpus kernel release the machine booted.
	Version string `json:"version"`
	// Updates are the applied hot-update tarballs, oldest first, relative
	// to the state file's directory.
	Updates []string `json:"updates,omitempty"`

	// dir is the state file's directory, for resolving update paths.
	dir string
}

// Load reads a state file.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &State{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("simstate: %s: %w", path, err)
	}
	st.dir = filepath.Dir(path)
	return st, nil
}

// CorruptError reports a state file that exists but cannot be parsed —
// callers that can re-derive the machine (e.g. a subscriber with a
// journal) match it with errors.As and degrade instead of failing.
type CorruptError struct {
	Path string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("simstate: %s is corrupt: %v", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// LoadOrRederive reads a state file; a corrupt or truncated file is not
// fatal — it returns a fresh state for version plus a *CorruptError the
// caller should warn about. A missing file also re-derives (nil error).
func LoadOrRederive(path, version string) (*State, error) {
	st, err := Load(path)
	if err == nil {
		return st, nil
	}
	fresh, nerr := New(version)
	if nerr != nil {
		return nil, nerr
	}
	fresh.dir = filepath.Dir(path)
	if os.IsNotExist(err) {
		return fresh, nil
	}
	return fresh, &CorruptError{Path: path, Err: err}
}

// Save writes the state file durably with atomicfile.Write — a tool
// killed mid-save leaves either the old state or the new one, never a
// torn file. Its crash points fire through the process-global hook.
func (st *State) Save(path string) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(path, append(b, '\n'), 0o644, nil, cpSave)
}

// New creates a fresh state for a release.
func New(version string) (*State, error) {
	ok := false
	for _, v := range cvedb.Versions {
		if v == version {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("simstate: unknown kernel release %q (have %v)", version, cvedb.Versions)
	}
	return &State{Version: version}, nil
}

// resolve returns an update path relative to the state file.
func (st *State) resolve(p string) string {
	if filepath.IsAbs(p) || st.dir == "" {
		return p
	}
	return filepath.Join(st.dir, p)
}

// LoadUpdate reads one of the state's update tarballs.
func (st *State) LoadUpdate(p string) (*core.Update, error) {
	f, err := os.Open(st.resolve(p))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadTar(f)
}

// Tree reconstructs the machine's current source: the release tree with
// every applied update's source patch applied in order. This is the
// "previously-patched source" a stacked ksplice-create needs (paper
// section 5.4).
func (st *State) Tree() (*srctree.Tree, error) {
	tree := cvedb.Tree(st.Version)
	for _, p := range st.Updates {
		u, err := st.LoadUpdate(p)
		if err != nil {
			return nil, err
		}
		if u.PatchText == "" {
			return nil, fmt.Errorf("simstate: update %s carries no source patch", p)
		}
		tree, err = tree.Patch(u.PatchText)
		if err != nil {
			return nil, fmt.Errorf("simstate: replaying source patch of %s: %w", p, err)
		}
	}
	return tree, nil
}

// Replay boots the machine and re-applies its updates under apply,
// returning the running kernel and its Ksplice manager. Callers thread
// their own core.ApplyOptions through so a busy machine can tune
// MaxAttempts/RetryDelay; the zero value keeps the defaults. The boot
// goes through the artifact store's cached build and link paths, so with
// a disk-backed store (srctree.SetStore) a replay in a fresh process
// reuses the compiled units and linked image an earlier tool run left
// behind.
func (st *State) Replay(apply core.ApplyOptions) (*kernel.Kernel, *core.Manager, error) {
	br, err := srctree.BuildCached(cvedb.Tree(st.Version), codegen.KernelBuild())
	if err != nil {
		return nil, nil, err
	}
	im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
	if err != nil {
		return nil, nil, err
	}
	k, err := kernel.BootImage(br, im, 0)
	if err != nil {
		return nil, nil, err
	}
	mgr := core.NewManager(k)
	for _, p := range st.Updates {
		u, err := st.LoadUpdate(p)
		if err != nil {
			return nil, nil, err
		}
		if _, err := mgr.Apply(u, apply); err != nil {
			return nil, nil, fmt.Errorf("simstate: replaying %s: %w", p, err)
		}
	}
	return k, mgr, nil
}
