package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"gosplice/internal/isa"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
)

// Errors surfaced by Apply and Undo.
var (
	// ErrWrongKernel: the update was prepared for a different kernel
	// version ("original source that does not correspond to the running
	// kernel" is exactly what run-pre matching exists to catch; the
	// version stamp is the cheap first-line check).
	ErrWrongKernel = errors.New("core: update was prepared for a different kernel version")
	// ErrNotQuiescent: a thread was executing (or had a return address)
	// inside a function being replaced on every attempt, so the update
	// was abandoned (paper section 5.2).
	ErrNotQuiescent = errors.New("core: patched functions never became quiescent; update abandoned")
)

// Trampoline records one splice: the jump written over an obsolete
// function's entry and the bytes it displaced.
type Trampoline struct {
	Name   string
	Unit   string
	Addr   uint32 // run address of the obsolete function
	Size   uint32 // extent of the obsolete function
	Target uint32 // replacement code address in the primary module
	Saved  []byte // original entry bytes, for undo
}

// Applied is an update resident in a kernel.
type Applied struct {
	Update      *Update
	ModuleName  string
	Trampolines []Trampoline
	// Matches holds the per-unit run-pre results that resolved the
	// module.
	Matches map[string]*MatchResult
	// Attempts is how many stop_machine captures were needed before the
	// safety condition held.
	Attempts int
	// Pause is the duration of the successful stop_machine window.
	Pause time.Duration
	// MatchDuration is the wall-clock time run-pre matching took (zero
	// under TrustSymtab).
	MatchDuration time.Duration
	// HelperBytes is the total size of the helper objects (the paper
	// notes helpers can be much larger than primaries and are unloaded
	// after use).
	HelperBytes  int
	PrimaryBytes int

	reversed bool
}

// ApplyOptions tunes Apply.
type ApplyOptions struct {
	// TrustSymtab is the unsafe ablation mode: skip run-pre matching and
	// resolve every import from the first kallsyms candidate, the way a
	// symbol-table-driven hot update system would. Exists to demonstrate
	// (in the evaluation) why run-pre matching is necessary; never use it
	// otherwise.
	TrustSymtab bool
}

// Manager owns the Ksplice state of one kernel: the stack of applied
// updates. Updates must be undone in reverse order of application,
// because a later update's run-pre match binds against the newer
// replacement code (section 5.4).
type Manager struct {
	K       *kernel.Kernel
	applied []*Applied
	seq     int
}

// NewManager creates the Ksplice manager for a kernel.
func NewManager(k *kernel.Kernel) *Manager {
	return &Manager{K: k}
}

// Applied returns the stack of live updates, oldest first.
func (m *Manager) Applied() []*Applied {
	out := make([]*Applied, 0, len(m.applied))
	out = append(out, m.applied...)
	return out
}

// Apply splices an update into the running kernel. On success the kernel
// is running the patched code; on an error with a nil *Applied the kernel
// is unchanged. An error with a non-nil *Applied means a post_apply hook
// failed after the splice: the update is live and on the stack, and Undo
// reverses it.
func (m *Manager) Apply(u *Update, opts ApplyOptions) (*Applied, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if u.KernelVersion != m.K.Version {
		return nil, fmt.Errorf("%w: update for %q, kernel is %q", ErrWrongKernel, u.KernelVersion, m.K.Version)
	}

	// Stage 1: run-pre matching (or the unsafe symbol-table ablation).
	// Symbol values inferred from run code are canonicalized through the
	// trampolines of already-applied updates, so that an unchanged
	// caller's target (the original, trampolined entry) and a patched
	// function's anchor (its replacement) unify (section 5.4).
	canon := m.trampolineCanon()
	matches := map[string]*MatchResult{}
	var matchDur time.Duration
	if !opts.TrustSymtab {
		matchStart := time.Now()
		m.K.Lock()
		mem := m.K.LockedMem()
		for _, uu := range u.Units {
			if uu.Helper == nil {
				continue
			}
			res, err := MatchUnitCanon(mem, m.K.Syms, uu.Helper, canon)
			if err != nil {
				m.K.Unlock()
				return nil, err
			}
			matches[uu.Path] = res
		}
		m.K.Unlock()
		matchDur = time.Since(matchStart)
	}

	// Stage 2: load the primary module, resolving imports from the
	// match results.
	m.seq++
	modName := fmt.Sprintf("%s-primary-%d", u.Name, m.seq)
	var files []*obj.File
	helperBytes, primaryBytes := 0, 0
	for _, uu := range u.Units {
		files = append(files, uu.Primary)
		for _, s := range uu.Primary.Sections {
			primaryBytes += int(s.Len())
		}
		if uu.Helper != nil {
			for _, s := range uu.Helper.Sections {
				helperBytes += int(s.Len())
			}
		}
	}
	resolver := m.makeResolver(matches, opts.TrustSymtab)
	mod, err := m.K.LoadModule(modName, files, resolver)
	if err != nil {
		return nil, fmt.Errorf("core: loading primary module: %w", err)
	}
	// From here on, failure must unload the module.
	fail := func(err error) (*Applied, error) {
		_ = m.K.UnloadModule(modName)
		return nil, err
	}

	// Stage 3: build the trampoline plan.
	a := &Applied{
		Update: u, ModuleName: modName, Matches: matches,
		MatchDuration: matchDur,
		HelperBytes:   helperBytes, PrimaryBytes: primaryBytes,
	}
	for _, uu := range u.Units {
		for _, fname := range uu.Patched {
			target, err := moduleFunc(mod, uu.Path, fname)
			if err != nil {
				return fail(err)
			}
			var runAddr, runSize uint32
			if opts.TrustSymtab {
				cands := m.K.Syms.Lookup(fname)
				var fns []kernel.Sym
				for _, c := range cands {
					if c.Func && c.Module == "" {
						fns = append(fns, c)
					}
				}
				if len(fns) == 0 {
					return fail(fmt.Errorf("core: no kallsyms entry for %s", fname))
				}
				// Deliberately naive: first candidate wins, ambiguity and
				// all. This is the failure mode the ablation demonstrates.
				runAddr, runSize = fns[0].Addr, fns[0].Size
			} else {
				anchor, ok := matches[uu.Path].Anchors[fname]
				if !ok {
					return fail(fmt.Errorf("core: no run-pre anchor for %s:%s", uu.Path, fname))
				}
				runAddr, runSize = anchor.Addr, anchor.Size
			}
			if runSize < isa.TrampolineLen {
				return fail(fmt.Errorf("core: function %s too small for a trampoline (%d bytes)", fname, runSize))
			}
			a.Trampolines = append(a.Trampolines, Trampoline{
				Name: fname, Unit: uu.Path, Addr: runAddr, Size: runSize, Target: target,
			})
		}
	}
	sort.Slice(a.Trampolines, func(i, j int) bool { return a.Trampolines[i].Addr < a.Trampolines[j].Addr })

	// Stage 4: hooks that run before the machine is stopped.
	hooks, err := m.hookAddrs(mod)
	if err != nil {
		return fail(err)
	}
	for _, h := range hooks[".ksplice.pre_apply"] {
		if _, err := m.K.CallIsolatedAddr(h); err != nil {
			return fail(fmt.Errorf("core: pre_apply hook failed: %w", err))
		}
	}

	// Stage 5: capture the CPUs and splice, retrying while non-quiescent.
	jumps := make([]entryPatch, len(a.Trampolines))
	for i, tr := range a.Trampolines {
		jumps[i] = entryPatch{tr.Addr, isa.Trampoline(tr.Addr, tr.Target)}
	}
	saved, attempts, pause, err := m.swapStopped(trampolineRanges(a.Trampolines), jumps, hooks, "apply")
	a.Attempts, a.Pause = attempts, pause
	if err != nil {
		return fail(err)
	}
	for i := range a.Trampolines {
		a.Trampolines[i].Saved = saved[i].code
	}

	// Stage 6: the splice is live, so the update is on the stack before
	// the post hooks run. A failing post hook is reported with the
	// update, not rolled back: it runs outside the atomic window by
	// design, and Undo reverses it like any other.
	m.applied = append(m.applied, a)
	for _, h := range hooks[".ksplice.post_apply"] {
		if _, err := m.K.CallIsolatedAddr(h); err != nil {
			return a, fmt.Errorf("core: post_apply hook failed after splice: %w", err)
		}
	}
	return a, nil
}

// trampolineCanon returns a function mapping an address through every
// applied trampoline chain to the newest replacement.
func (m *Manager) trampolineCanon() func(uint32) uint32 {
	hops := map[uint32]uint32{}
	for _, a := range m.applied {
		for _, tr := range a.Trampolines {
			hops[tr.Addr] = tr.Target
		}
	}
	if len(hops) == 0 {
		return nil
	}
	return func(v uint32) uint32 {
		for i := 0; i < len(hops)+1; i++ {
			next, ok := hops[v]
			if !ok {
				return v
			}
			v = next
		}
		return v
	}
}

// errBusy distinguishes the retryable safety-check failure.
var errBusy = errors.New("core: a thread is using a patched function")

// A busy safety check is retried a few times after a short delay, then
// the update is abandoned (paper section 5.2).
const (
	quiesceAttempts = 5
	quiesceDelay    = 500 * time.Microsecond
)

// entryPatch is one write of the update step: code over the bytes at addr.
type entryPatch struct {
	addr uint32
	code []byte
}

// swapStopped is the update step of paper section 5.2, shared by Apply
// and Undo. With the machine stopped it refuses while any thread is
// inside one of the busy ranges, otherwise writes every patch and runs
// the stage's in-window hooks (.ksplice.<stage>); if a hook fails it
// restores the bytes it wrote, so the step is all or nothing. A refusal
// is retried quiesceAttempts times, quiesceDelay apart, then reported as
// ErrNotQuiescent. It returns the inverse patches (the bytes displaced),
// the captures used and the pause of the last one.
func (m *Manager) swapStopped(busy [][2]uint32, patches []entryPatch, hooks map[string][]uint32, stage string) (inverse []entryPatch, attempts int, pause time.Duration, err error) {
	for attempts = 1; ; attempts++ {
		pause, err = m.K.StopMachine(func() error {
			if err := m.safetyCheck(busy); err != nil {
				return err
			}
			inverse = m.writeEntries(patches)
			for _, h := range hooks[".ksplice."+stage] {
				if _, err := m.K.CallIsolatedAddr(h); err != nil {
					m.writeEntries(inverse)
					return fmt.Errorf("core: %s hook failed: %w", stage, err)
				}
			}
			return nil
		})
		switch {
		case !errors.Is(err, errBusy):
			return inverse, attempts, pause, err
		case attempts == quiesceAttempts:
			return nil, attempts, pause, ErrNotQuiescent
		}
		time.Sleep(quiesceDelay)
	}
}

// writeEntries writes each patch and returns the patches that undo it.
func (m *Manager) writeEntries(patches []entryPatch) []entryPatch {
	m.K.Lock()
	defer m.K.Unlock()
	mem := m.K.LockedMem()
	inverse := make([]entryPatch, len(patches))
	for i, p := range patches {
		inverse[i] = entryPatch{p.addr, mem.ReadBytes(p.addr, len(p.code))}
		mem.WriteAt(p.addr, p.code)
	}
	return inverse
}

// trampolineRanges converts the plan into address ranges for the safety
// check.
func trampolineRanges(trs []Trampoline) [][2]uint32 {
	out := make([][2]uint32, len(trs))
	for i, tr := range trs {
		out[i] = [2]uint32{tr.Addr, tr.Addr + tr.Size}
	}
	return out
}

// safetyCheck enforces the paper's update condition (section 5.2): no
// thread's instruction pointer may fall within a function being replaced,
// and no thread's kernel stack may contain a return address within one.
// The stack test is conservative: every 4-byte-aligned word in the live
// stack area that lands in a patched range counts, so a return address
// the frame layout leaves at 4 mod 8 is seen too.
func (m *Manager) safetyCheck(ranges [][2]uint32) error {
	inRange := func(v uint32) bool {
		for _, rg := range ranges {
			if v >= rg[0] && v < rg[1] {
				return true
			}
		}
		return false
	}
	m.K.Lock()
	defer m.K.Unlock()
	mem := m.K.LockedMem()
	for _, t := range m.K.LockedTasks() {
		if !t.Runnable() {
			continue
		}
		if inRange(t.Th.IP) {
			return fmt.Errorf("%w: task %d (%s) executing at %#x", errBusy, t.ID, t.Name, t.Th.IP)
		}
		sp := t.Th.SP() &^ 3
		for addr := sp; addr+4 <= t.StackHi; addr += 4 {
			word := uint32(mem.LoadLE(addr, 4))
			if inRange(word) {
				return fmt.Errorf("%w: task %d (%s) stack slot %#x holds %#x", errBusy, t.ID, t.Name, addr, word)
			}
		}
	}
	return nil
}

// makeResolver builds the import resolver for the primary module.
func (m *Manager) makeResolver(matches map[string]*MatchResult, trust bool) kernel.Resolver {
	// Aggregate plain-name values across units, detecting conflicts.
	global := map[string]uint32{}
	conflicted := map[string]bool{}
	for _, res := range matches {
		for name, val := range res.Vals {
			if prev, ok := global[name]; ok && prev != val {
				conflicted[name] = true
				continue
			}
			global[name] = val
		}
	}
	return func(name string) (uint32, error) {
		if trust {
			// The ablation cannot scope a file-local import to its unit:
			// it strips the scope and takes the first kallsyms candidate,
			// which is wrong whenever the name is ambiguous.
			sym, _, _ := SplitImport(name)
			cands := m.K.Syms.Lookup(sym)
			if len(cands) > 0 {
				return cands[0].Addr, nil
			}
			return 0, fmt.Errorf("core: symbol %q not in kallsyms", sym)
		}
		if sym, unit, ok := SplitImport(name); ok {
			res := matches[unit]
			if res == nil {
				return 0, fmt.Errorf("core: import %s: no run-pre match for unit %s", sym, unit)
			}
			if val, ok := res.Vals[sym]; ok {
				return val, nil
			}
			// The pre code never referenced the symbol, so nothing was
			// inferred; fall back to kallsyms only if unambiguous.
			if addr, err := m.K.Syms.ResolveUnique(sym); err == nil {
				return addr, nil
			}
			return 0, fmt.Errorf("core: cannot resolve file-local symbol %q of %s", sym, unit)
		}
		if val, ok := global[name]; ok && !conflicted[name] {
			return val, nil
		}
		return 0, fmt.Errorf("core: symbol %q not resolved by run-pre matching", name)
	}
}

// moduleFunc finds the replacement function's address in the loaded
// primary module, scoped to the contributing unit.
func moduleFunc(mod *kernel.Module, unit, fname string) (uint32, error) {
	for _, s := range mod.Image.Symbols {
		if s.Name == fname && s.Func && s.File == unit {
			return s.Addr, nil
		}
	}
	return 0, fmt.Errorf("core: replacement for %s:%s missing from primary module", unit, fname)
}

// hookAddrs reads the .ksplice.* note sections of the loaded module and
// returns the registered hook function addresses per section name.
func (m *Manager) hookAddrs(mod *kernel.Module) (map[string][]uint32, error) {
	out := map[string][]uint32{}
	for _, ps := range mod.Image.Sections {
		if !strings.HasPrefix(ps.Name, ".ksplice.") {
			continue
		}
		for off := uint32(0); off+4 <= ps.Size; off += 4 {
			v, err := m.K.ReadWord(ps.Addr + off)
			if err != nil {
				return nil, err
			}
			if v != 0 {
				out[ps.Name] = append(out[ps.Name], v)
			}
		}
	}
	return out, nil
}

// Undo reverses the most recently applied update: the original function
// entries are restored and the primary module is unloaded. Reversal uses
// the same update step in the opposite direction — safety check against
// the replacement code, then byte restoration inside stop_machine. A
// failing in-window reverse hook leaves the update applied; a failing
// post_reverse hook is reported after the reversal completes. Reversal
// has no settings: opts is ignored, and kept so that existing callers
// (bench/harness passes ApplyOptions{}) still compile.
func (m *Manager) Undo(opts ApplyOptions) error {
	if len(m.applied) == 0 {
		return errors.New("core: no applied update to undo")
	}
	a := m.applied[len(m.applied)-1]

	mod, ok := m.K.Module(a.ModuleName)
	if !ok {
		return fmt.Errorf("core: primary module %s is gone", a.ModuleName)
	}
	hooks, err := m.hookAddrs(mod)
	if err != nil {
		return err
	}
	for _, h := range hooks[".ksplice.pre_reverse"] {
		if _, err := m.K.CallIsolatedAddr(h); err != nil {
			return fmt.Errorf("core: pre_reverse hook failed: %w", err)
		}
	}

	// No thread may be inside any replacement function (or past it on a
	// stack) while we cut the jumps over.
	restore := make([]entryPatch, len(a.Trampolines))
	for i, tr := range a.Trampolines {
		restore[i] = entryPatch{tr.Addr, tr.Saved}
	}
	if _, _, _, err := m.swapStopped(replacementRanges(mod, a), restore, hooks, "reverse"); err != nil {
		return err
	}

	var hookErr error
	for _, h := range hooks[".ksplice.post_reverse"] {
		if _, err := m.K.CallIsolatedAddr(h); err != nil {
			hookErr = fmt.Errorf("core: post_reverse hook failed after reversal: %w", err)
			break
		}
	}
	if err := m.K.UnloadModule(a.ModuleName); err != nil {
		return errors.Join(hookErr, err)
	}
	a.reversed = true
	m.applied = m.applied[:len(m.applied)-1]
	return hookErr
}

// replacementRanges computes the extents of the replacement functions in
// the primary module for the undo safety check.
func replacementRanges(mod *kernel.Module, a *Applied) [][2]uint32 {
	var out [][2]uint32
	for _, tr := range a.Trampolines {
		for _, s := range mod.Image.Symbols {
			if s.Name == tr.Name && s.Func && s.File == tr.Unit {
				out = append(out, [2]uint32{s.Addr, s.Addr + s.Size})
			}
		}
	}
	return out
}
