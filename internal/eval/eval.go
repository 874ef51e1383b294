// Package eval reproduces the paper's evaluation (section 6): it runs
// every corpus vulnerability through the full Ksplice pipeline against a
// running kernel of the right release and applies the paper's success
// criteria — the update applies cleanly (run-pre matching observes no
// inconsistencies, all symbols resolve, the stack check passes), the
// kernel keeps passing a correctness-checking stress workload, and for
// vulnerabilities with exploit programs the exploit works before the
// update and stops working after it.
package eval

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

// StageTimings records wall-clock time spent in each pipeline stage.
// Build and Boot are paid once per kernel release (the per-version boot
// cache); the rest accrue per patch. Durations are measurements, not
// results: they vary run to run and are excluded from the deterministic
// tables.
type StageTimings struct {
	Build  time.Duration // source tree -> objects (cache misses only)
	Boot   time.Duration // link + load + kinit
	Create time.Duration // ksplice-create (pre/post build + diff + extract)
	RunPre time.Duration // run-pre matching inside apply
	Apply  time.Duration // module load, quiescence, splice (minus RunPre)
	Stress time.Duration // correctness workload
	Undo   time.Duration // reversal
}

func (t *StageTimings) accumulate(u StageTimings) {
	t.Build += u.Build
	t.Boot += u.Boot
	t.Create += u.Create
	t.RunPre += u.RunPre
	t.Apply += u.Apply
	t.Stress += u.Stress
	t.Undo += u.Undo
}

// Total sums every stage.
func (t StageTimings) Total() time.Duration {
	return t.Build + t.Boot + t.Create + t.RunPre + t.Apply + t.Stress + t.Undo
}

// CacheStats attributes build-cache and differ activity to one Run: unit
// compiles served from the artifact store's memory and disk tiers vs.
// compiled, whole-tree build memo hits, kernel link cache hits per tier,
// store-level eviction/persistence activity, and how many pre/post unit
// comparisons the differ short-circuited by fingerprint instead of
// walking byte-for-byte. Like StageTimings these are measurements, not
// results: a second run in the same process sees warmer caches, and
// concurrent runs share the process-wide counters, so the numbers are
// excluded from the deterministic tables.
type CacheStats struct {
	UnitHits, UnitDiskHits, UnitMisses uint64 // per-unit compile cache, by tier
	BuildHits, BuildMisses             uint64 // whole-tree build memo
	LinkHits, LinkDiskHits, LinkMisses uint64 // kernel image link cache, by tier
	FingerprintSkips                   uint64 // differ short-circuits (pointer/fingerprint)
	DeepCompares                       uint64 // differ full byte-for-byte walks

	// Store-level activity: LRU evictions, artifacts persisted to disk
	// (count and payload bytes), corrupt disk entries demoted to misses.
	StoreEvictions      uint64
	StoreDiskWrites     uint64
	StoreDiskWriteBytes uint64
	StoreDiskErrors     uint64
	// Gauges at the end of the run (not deltas): bytes and entries
	// resident in the store's memory tier.
	StoreMemBytes, StoreMemEntries uint64
}

func cacheSnapshot() CacheStats {
	sc := srctree.Counters()
	dc := core.DiffStats()
	return CacheStats{
		UnitHits: sc.UnitHits, UnitDiskHits: sc.UnitDiskHits, UnitMisses: sc.UnitMisses,
		BuildHits: sc.BuildHits, BuildMisses: sc.BuildMisses,
		LinkHits: sc.LinkHits, LinkDiskHits: sc.LinkDiskHits, LinkMisses: sc.LinkMisses,
		FingerprintSkips: dc.FingerprintSkips, DeepCompares: dc.DeepCompares,
		StoreEvictions: sc.Store.Evictions, StoreDiskWrites: sc.Store.DiskWrites,
		StoreDiskWriteBytes: sc.Store.DiskWriteBytes, StoreDiskErrors: sc.Store.DiskErrors,
		StoreMemBytes: sc.Store.MemBytes, StoreMemEntries: sc.Store.MemEntries,
	}
}

func (c CacheStats) sub(b CacheStats) CacheStats {
	return CacheStats{
		UnitHits: c.UnitHits - b.UnitHits, UnitDiskHits: c.UnitDiskHits - b.UnitDiskHits,
		UnitMisses: c.UnitMisses - b.UnitMisses,
		BuildHits:  c.BuildHits - b.BuildHits, BuildMisses: c.BuildMisses - b.BuildMisses,
		LinkHits: c.LinkHits - b.LinkHits, LinkDiskHits: c.LinkDiskHits - b.LinkDiskHits,
		LinkMisses:          c.LinkMisses - b.LinkMisses,
		FingerprintSkips:    c.FingerprintSkips - b.FingerprintSkips,
		DeepCompares:        c.DeepCompares - b.DeepCompares,
		StoreEvictions:      c.StoreEvictions - b.StoreEvictions,
		StoreDiskWrites:     c.StoreDiskWrites - b.StoreDiskWrites,
		StoreDiskWriteBytes: c.StoreDiskWriteBytes - b.StoreDiskWriteBytes,
		StoreDiskErrors:     c.StoreDiskErrors - b.StoreDiskErrors,
		// Gauges: keep the end-of-run values.
		StoreMemBytes: c.StoreMemBytes, StoreMemEntries: c.StoreMemEntries,
	}
}

// PatchResult records one vulnerability's trip through the pipeline.
type PatchResult struct {
	ID      string
	Class   cvedb.Class
	Version string

	PatchLoC     int
	NeedsNewCode bool
	NewCodeLines int
	Table1Reason string

	InlineVictim   bool
	ExplicitInline bool
	AmbiguousSym   bool

	// Success criteria.
	Applied        bool
	ProbeVulnOK    bool // probe behaved vulnerably before the update
	ProbeFixedOK   bool // probe behaved fixed after the update
	ExploitTested  bool
	ExploitVulnOK  bool
	ExploitFixedOK bool
	StressOK       bool
	UndoOK         bool

	// Mechanics.
	Attempts     int
	Pause        time.Duration
	Trampolines  int
	HelperBytes  int
	PrimaryBytes int
	// Timings covers the per-patch stages (Create through Undo); the
	// shared Build/Boot cost lives in Result.Timings.
	Timings StageTimings

	Err string
}

// OK reports whether every applicable success criterion held.
func (r *PatchResult) OK() bool {
	if !r.Applied || !r.ProbeVulnOK || !r.ProbeFixedOK || !r.StressOK {
		return false
	}
	if !r.UndoOK {
		return false
	}
	if r.ExploitTested && (!r.ExploitVulnOK || !r.ExploitFixedOK) {
		return false
	}
	return r.Err == ""
}

// Result is a full evaluation run.
type Result struct {
	Patches []PatchResult
	// Ambiguity is the kallsyms census of a booted corpus kernel
	// (the paper's 7.9%-of-symbols / 21.1%-of-units numbers).
	Ambiguity kernel.AmbiguityStats
	// Pauses collects every successful stop_machine window.
	Pauses []time.Duration
	// Timings aggregates wall-clock cost across the whole run: the
	// per-version build/boot work plus every patch's stages.
	Timings StageTimings
	// Cache attributes build-cache and differ fast-path activity to this
	// run (a counter delta over the process-wide caches).
	Cache CacheStats
}

// Options tunes Run.
type Options struct {
	// Only restricts the run to the listed CVE IDs (all when empty).
	Only map[string]bool
	// StressRounds sets the per-update stress workload length.
	StressRounds int
	// KeepApplied leaves each update applied instead of undoing it (the
	// "eliminate all reboots" stacking mode). Undo checks are skipped.
	KeepApplied bool
	// Workers bounds how many patches are evaluated concurrently. Zero
	// or negative means runtime.NumCPU(). Stacking mode (KeepApplied) is
	// order-dependent — run-pre matching binds against the previous
	// update's replacement code (section 5.4) — so it always runs
	// sequentially on one shared kernel per release, whatever Workers
	// says.
	Workers int
	// Log receives progress lines when non-nil.
	Log io.Writer
	// Tracer receives the run's span tree: one root "patch" span per
	// vulnerability with a child span per stage (clone, create, run_pre,
	// apply, stress, undo), plus per-release "build" and "boot" spans.
	// Nil means telemetry.DefaultTracer(), which the cmd tools' -trace-out
	// flag exports on exit.
	Tracer *telemetry.Tracer
	// Verbose additionally streams one Log line per completed stage span
	// (ksplice-eval -v's stage-progress feed). It has no effect when Log
	// is nil.
	Verbose bool
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// bootEntry lazily builds and boots one release's template kernel. The
// build and link go through the process-wide srctree caches; the booted
// kernel itself is per-Run and is never evaluated against directly —
// workers take a Clone per patch, so every patch sees a pristine kernel.
type bootEntry struct {
	once        sync.Once
	k           *kernel.Kernel
	build, boot time.Duration
	err         error
}

func (e *bootEntry) get(tr *telemetry.Tracer, version string) (*kernel.Kernel, error) {
	e.once.Do(func() {
		t0 := time.Now()
		tree := cvedb.Tree(version)
		br, err := srctree.BuildCached(tree, codegen.KernelBuild())
		if err != nil {
			e.err = fmt.Errorf("eval: building %s: %w", version, err)
			return
		}
		im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
		if err != nil {
			e.err = fmt.Errorf("eval: linking %s: %w", version, err)
			return
		}
		e.build = time.Since(t0)
		tr.Record(nil, "build", t0, time.Now(), telemetry.A("version", version))
		observeStage("build", e.build)
		t0 = time.Now()
		k, err := kernel.BootImage(br, im, 0)
		if err != nil {
			e.err = fmt.Errorf("eval: booting %s: %w", version, err)
			return
		}
		e.boot = time.Since(t0)
		tr.Record(nil, "boot", t0, time.Now(), telemetry.A("version", version))
		observeStage("boot", e.boot)
		e.k = k
	})
	return e.k, e.err
}

// Run evaluates the corpus: each vulnerability is taken through probe ->
// exploit -> create -> apply -> re-probe -> re-exploit -> stress -> undo
// on its own kernel, cloned from a per-release booted template. Patches
// run concurrently under a bounded worker pool (Options.Workers);
// results are collected in corpus order, so every deterministic table is
// byte-identical whatever the worker count.
func Run(opts Options) (*Result, error) {
	if opts.StressRounds == 0 {
		opts.StressRounds = 50
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if opts.Tracer == nil {
		opts.Tracer = telemetry.DefaultTracer()
	}
	cache0 := cacheSnapshot()

	// The deterministic job list: release order, then corpus order
	// within the release.
	type job struct {
		version string
		c       *cvedb.CVE
	}
	var jobs []job
	for _, version := range cvedb.Versions {
		for _, c := range cvedb.ForVersion(version) {
			if opts.Only == nil || opts.Only[c.ID] {
				jobs = append(jobs, job{version, c})
			}
		}
	}
	res := &Result{}
	if len(jobs) == 0 {
		return res, nil
	}

	boots := map[string]*bootEntry{}
	for _, j := range jobs {
		if boots[j.version] == nil {
			boots[j.version] = &bootEntry{}
		}
	}

	var (
		results = make([]PatchResult, len(jobs))
		errMu   sync.Mutex
		runErr  error
	)
	setErr := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return runErr != nil
	}
	var logMu sync.Mutex
	logResult := func(j job, pr *PatchResult) {
		if pr.OK() {
			cPatchOK.Inc()
		} else {
			cPatchFail.Inc()
		}
		status := "ok"
		if !pr.OK() {
			status = "FAIL: " + pr.Err
		}
		logMu.Lock()
		opts.logf("%-14s %-18s loc=%-3d newcode=%-2d %s", j.c.ID, j.version, pr.PatchLoC, pr.NewCodeLines, status)
		logMu.Unlock()
	}
	if opts.Verbose && opts.Log != nil {
		// Stage-progress lines are fed by span events, not by extra
		// instrumentation: every eval span carries a cve or version
		// attribute, so the hook prints exactly the pipeline's stages.
		opts.Tracer.SetOnEnd(func(rec telemetry.SpanRecord) {
			who := rec.Attr("cve")
			if who == "" {
				who = rec.Attr("version")
			}
			if who == "" {
				return
			}
			logMu.Lock()
			opts.logf("  %-8s %-18s %10.3fms", rec.Name, who, float64(rec.Duration().Nanoseconds())/1e6)
			logMu.Unlock()
		})
		defer opts.Tracer.SetOnEnd(nil)
	}
	// The queue-depth gauge counts jobs handed to the run and not yet
	// finished; the deferred correction drains whatever an aborted run
	// leaves behind so the gauge returns to its resting level.
	var pending atomic.Int64
	pending.Store(int64(len(jobs)))
	gQueue.Add(int64(len(jobs)))
	jobDone := func() { pending.Add(-1); gQueue.Add(-1) }
	defer func() { gQueue.Add(-pending.Load()) }()

	if opts.KeepApplied {
		// Stacking mode: one kernel per release accumulates every fix,
		// strictly in corpus order.
		kernels := map[string]*kernel.Kernel{}
		mgrs := map[string]*core.Manager{}
		for i, j := range jobs {
			patch := opts.Tracer.Start("patch", telemetry.A("cve", j.c.ID), telemetry.A("version", j.version))
			k := kernels[j.version]
			if k == nil {
				tmpl, err := boots[j.version].get(opts.Tracer, j.version)
				if err != nil {
					return nil, err
				}
				cs := patch.Child("clone", telemetry.A("cve", j.c.ID))
				k, err = tmpl.Clone()
				cs.End()
				if err != nil {
					return nil, fmt.Errorf("eval: cloning %s kernel: %w", j.version, err)
				}
				observeStage("clone", cs.Duration())
				kernels[j.version] = k
				mgrs[j.version] = core.NewManager(k)
			}
			results[i] = evalOne(k, mgrs[j.version], cvedb.Tree(j.version), j.c, &opts, patch)
			patch.End()
			jobDone()
			logResult(j, &results[i])
		}
	} else {
		jobCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobCh {
					func(i int) {
						defer jobDone()
						if failed() {
							return
						}
						j := jobs[i]
						tmpl, err := boots[j.version].get(opts.Tracer, j.version)
						if err != nil {
							setErr(err)
							return
						}
						patch := opts.Tracer.Start("patch", telemetry.A("cve", j.c.ID), telemetry.A("version", j.version))
						cs := patch.Child("clone", telemetry.A("cve", j.c.ID))
						k, err := tmpl.Clone()
						cs.End()
						if err != nil {
							patch.End()
							setErr(fmt.Errorf("eval: cloning %s kernel: %w", j.version, err))
							return
						}
						observeStage("clone", cs.Duration())
						results[i] = evalOne(k, core.NewManager(k), cvedb.Tree(j.version), j.c, &opts, patch)
						patch.End()
						logResult(j, &results[i])
					}(i)
				}
			}()
		}
		for i := range jobs {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		if runErr != nil {
			return nil, runErr
		}
	}

	// Collect in job (corpus) order, so the report is independent of
	// worker scheduling.
	for i := range results {
		pr := &results[i]
		if pr.Applied {
			res.Pauses = append(res.Pauses, pr.Pause)
		}
		res.Patches = append(res.Patches, *pr)
		res.Timings.accumulate(pr.Timings)
	}
	for _, e := range boots {
		if e.k != nil {
			res.Timings.Build += e.build
			res.Timings.Boot += e.boot
		}
	}
	// The kallsyms census comes from the first evaluated release's
	// template (which no patch ever touches).
	if k, err := boots[jobs[0].version].get(opts.Tracer, jobs[0].version); err == nil {
		res.Ambiguity = k.Syms.Ambiguity()
	}
	res.Cache = cacheSnapshot().sub(cache0)
	return res, nil
}

// baseAddr finds the base-kernel (non-module) function symbol for name.
// Resolution must be exact: a missing name and an ambiguous one are both
// errors (silently taking the last match could probe the wrong code), and
// a symbol legitimately linked at address zero still resolves.
func baseAddr(st *kernel.SymTab, name string) (uint32, error) {
	var found []kernel.Sym
	for _, s := range st.Lookup(name) {
		if s.Func && s.Module == "" {
			found = append(found, s)
		}
	}
	switch len(found) {
	case 0:
		return 0, fmt.Errorf("no base kernel function %q", name)
	case 1:
		return found[0].Addr, nil
	default:
		return 0, fmt.Errorf("symbol %q names %d base kernel functions", name, len(found))
	}
}

// runProbe executes a probe via the base-kernel entry point (which may be
// trampolined) on a task with the probe's credential.
func runProbe(k *kernel.Kernel, p cvedb.Probe) (int64, error) {
	addr, err := baseAddr(k.Syms, p.Entry)
	if err != nil {
		return 0, err
	}
	t, err := k.SpawnAt("probe:"+p.Entry, addr, p.UID, p.Args...)
	if err != nil {
		return 0, err
	}
	if err := k.RunUntilExit(t, 50_000_000); err != nil {
		k.ReapExited()
		return 0, err
	}
	code := t.ExitCode
	k.ReapExited()
	return code, nil
}

// runExploit executes a user exploit program and reports (exit, uid).
func runExploit(k *kernel.Kernel, e *cvedb.Exploit) (int64, int, error) {
	addr, err := baseAddr(k.Syms, e.Entry)
	if err != nil {
		return 0, 0, err
	}
	t, err := k.SpawnAt("exploit:"+e.Entry, addr, e.UID)
	if err != nil {
		return 0, 0, err
	}
	if err := k.RunUntilExit(t, 50_000_000); err != nil {
		k.ReapExited()
		return 0, 0, err
	}
	code, uid := t.ExitCode, t.UID
	k.ReapExited()
	return code, uid, nil
}

func evalOne(k *kernel.Kernel, mgr *core.Manager, tree *srctree.Tree, c *cvedb.CVE, opts *Options, patch *telemetry.Span) PatchResult {
	pr := PatchResult{
		ID: c.ID, Class: c.Class, Version: c.Version,
		PatchLoC:     c.PatchLoC(),
		NeedsNewCode: c.DataSemantics,
		NewCodeLines: 0,
		Table1Reason: c.Table1Reason,
		InlineVictim: c.InlineVictim, ExplicitInline: c.ExplicitInline,
		AmbiguousSym: c.AmbiguousSym,
	}
	if c.DataSemantics {
		pr.NewCodeLines = c.NewCodeLines()
	}
	fail := func(format string, args ...any) PatchResult {
		pr.Err = fmt.Sprintf(format, args...)
		return pr
	}

	// 1. The vulnerability is live.
	got, err := runProbe(k, c.Probe)
	if err != nil {
		return fail("pre-probe: %v", err)
	}
	pr.ProbeVulnOK = got == c.Probe.VulnResult
	if !pr.ProbeVulnOK {
		return fail("pre-probe = %d, want %d", got, c.Probe.VulnResult)
	}
	if c.Exploit != nil {
		pr.ExploitTested = true
		code, uid, err := runExploit(k, c.Exploit)
		if err != nil {
			return fail("pre-exploit: %v", err)
		}
		pr.ExploitVulnOK = code == c.Exploit.WantVuln &&
			(c.Exploit.EscalatesTo < 0 || uid == c.Exploit.EscalatesTo)
		if !pr.ExploitVulnOK {
			return fail("pre-exploit = %d uid %d", code, uid)
		}
	}

	// 2. ksplice-create. Builds go through the artifact store, so every
	// patch of a release shares one pre build.
	// Each stage runs under a span; StageTimings reads the span
	// durations, so the report table and the trace agree by construction.
	sp := patch.Child("create", telemetry.A("cve", c.ID))
	u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{Name: "ksplice-" + c.ID})
	sp.End()
	pr.Timings.Create = sp.Duration()
	observeStage("create", pr.Timings.Create)
	if err != nil {
		return fail("create: %v", err)
	}

	// 3. ksplice-apply.
	t0 := time.Now()
	sp = patch.Child("apply", telemetry.A("cve", c.ID))
	a, err := mgr.Apply(u, core.ApplyOptions{})
	sp.End()
	if err != nil {
		pr.Timings.Apply = sp.Duration()
		observeStage("apply", pr.Timings.Apply)
		return fail("apply: %v", err)
	}
	// Report run-pre matching separately from the rest of apply, so the
	// stages stay disjoint and sum to the wall-clock total. The lower
	// layer reports its duration rather than its interval, so the span is
	// recorded pre-measured, nested under apply at apply's start.
	opts.Tracer.Record(sp, "run_pre", t0, t0.Add(a.MatchDuration), telemetry.A("cve", c.ID))
	pr.Timings.RunPre = a.MatchDuration
	pr.Timings.Apply = sp.Duration() - a.MatchDuration
	observeStage("run_pre", pr.Timings.RunPre)
	observeStage("apply", pr.Timings.Apply)
	pr.Applied = true
	pr.Attempts = a.Attempts
	pr.Pause = a.Pause
	pr.Trampolines = len(a.Trampolines)
	pr.HelperBytes = a.HelperBytes
	pr.PrimaryBytes = a.PrimaryBytes

	// 4. Behaviour flipped.
	got, err = runProbe(k, c.Probe)
	if err != nil {
		return fail("post-probe: %v", err)
	}
	pr.ProbeFixedOK = got == c.Probe.FixedResult
	if !pr.ProbeFixedOK {
		return fail("post-probe = %d, want %d", got, c.Probe.FixedResult)
	}
	if c.Exploit != nil {
		code, uid, err := runExploit(k, c.Exploit)
		if err != nil {
			return fail("post-exploit: %v", err)
		}
		pr.ExploitFixedOK = code == c.Exploit.WantFixed && uid != 0
		if !pr.ExploitFixedOK {
			return fail("post-exploit = %d uid %d (exploit not blocked)", code, uid)
		}
	}

	// 5. The kernel still works.
	sp = patch.Child("stress", telemetry.A("cve", c.ID))
	stress, err := k.Call("stress_main", int64(opts.StressRounds))
	sp.End()
	pr.Timings.Stress = sp.Duration()
	observeStage("stress", pr.Timings.Stress)
	if err != nil {
		return fail("stress: %v", err)
	}
	pr.StressOK = stress == 0
	if !pr.StressOK {
		return fail("stress reported %d inconsistencies", stress)
	}

	// 6. Reversal restores the old behaviour (skipped in stacking mode).
	if opts.KeepApplied {
		pr.UndoOK = true
		return pr
	}
	sp = patch.Child("undo", telemetry.A("cve", c.ID))
	err = mgr.Undo(core.ApplyOptions{})
	sp.End()
	pr.Timings.Undo = sp.Duration()
	observeStage("undo", pr.Timings.Undo)
	if err != nil {
		return fail("undo: %v", err)
	}
	got, err = runProbe(k, c.Probe)
	if err != nil {
		return fail("post-undo probe: %v", err)
	}
	if c.DataSemantics {
		// Reversal removes the replacement code but deliberately does not
		// re-corrupt the data the apply hooks repaired, so the probe may
		// legitimately keep reporting the fixed behaviour. Either sane
		// outcome passes; anything else means the splice reversal broke
		// the kernel.
		pr.UndoOK = got == c.Probe.VulnResult || got == c.Probe.FixedResult
	} else {
		pr.UndoOK = got == c.Probe.VulnResult
	}
	if !pr.UndoOK {
		return fail("post-undo probe = %d, want vulnerable %d", got, c.Probe.VulnResult)
	}
	return pr
}
