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
	"gosplice/internal/obj"
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
	// Timings aggregates wall-clock cost across the whole run: the
	// per-version build/boot work plus every patch's stages.
	Timings StageTimings
	// Cache attributes build-cache activity to this run: a delta of the
	// process-wide counters, with the store's memory-tier gauges at their
	// end-of-run values. Like Timings these are measurements, not
	// results: a second run in the same process sees warmer caches, and
	// concurrent runs share the counters, so they stay out of the
	// deterministic tables.
	Cache srctree.CacheCounters
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
// workers take a Clone, so every patch (or, when stacking, every
// release) starts from a pristine kernel.
type bootEntry struct {
	once        sync.Once
	k           *kernel.Kernel
	build, boot time.Duration
	err         error
}

func (e *bootEntry) get(tr *telemetry.Tracer, version string) (*kernel.Kernel, error) {
	e.once.Do(func() {
		who := telemetry.A("version", version)
		var br *srctree.BuildResult
		var im *obj.Image
		e.build, e.err = stage(tr, nil, "build", who, func() (err error) {
			if br, err = srctree.BuildCached(cvedb.Tree(version), codegen.KernelBuild()); err != nil {
				return fmt.Errorf("eval: building %s: %w", version, err)
			}
			if im, err = srctree.LinkKernelCached(br, kernel.KernelBase); err != nil {
				return fmt.Errorf("eval: linking %s: %w", version, err)
			}
			return nil
		})
		if e.err != nil {
			return
		}
		e.boot, e.err = stage(tr, nil, "boot", who, func() (err error) {
			if e.k, err = kernel.BootImage(br, im, 0); err != nil {
				return fmt.Errorf("eval: booting %s: %w", version, err)
			}
			return nil
		})
	})
	return e.k, e.err
}

// stage runs fn as one pipeline stage: a span named name under parent
// (a root span when parent is nil) carrying the who attribute, an
// observation of the stage histogram, and the returned duration, which
// fills StageTimings — so the report table and the trace agree by
// construction.
func stage(tr *telemetry.Tracer, parent *telemetry.Span, name string, who telemetry.Attr, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := tr.Record(parent, name, t0, time.Now(), who).Duration()
	observeStage(name, d)
	return d, err
}

// Run evaluates the corpus: each vulnerability is taken through probe ->
// exploit -> create -> apply -> re-probe -> re-exploit -> stress -> undo
// on a kernel cloned from a per-release booted template. Patches run
// under a bounded worker pool (Options.Workers), each on its own clone;
// stacking (Options.KeepApplied) runs one worker, which clones each
// release once and applies its patches in corpus order on that clone.
// Results are collected in corpus order, so every deterministic table is
// byte-identical whatever the worker count.
func Run(opts Options) (*Result, error) {
	if opts.StressRounds == 0 {
		opts.StressRounds = 50
	}
	workers := opts.Workers
	if opts.KeepApplied {
		workers = 1
	} else if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if opts.Tracer == nil {
		opts.Tracer = telemetry.DefaultTracer()
	}
	cache0 := srctree.Counters()

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

	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The kernel this worker evaluates on. Without stacking every
			// patch takes a fresh clone; when stacking, a release's first
			// patch does and the rest accumulate on it (section 5.4:
			// run-pre matching binds against the previous update's
			// replacement code).
			var (
				version string
				k       *kernel.Kernel
				mgr     *core.Manager
			)
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
					if !opts.KeepApplied || version != j.version {
						_, err = stage(opts.Tracer, patch, "clone", telemetry.A("cve", j.c.ID), func() (err error) {
							k, err = tmpl.Clone()
							return err
						})
						if err != nil {
							patch.End()
							setErr(fmt.Errorf("eval: cloning %s kernel: %w", j.version, err))
							return
						}
						version, mgr = j.version, core.NewManager(k)
					}
					results[i] = evalOne(k, mgr, cvedb.Tree(j.version), j.c, &opts, patch)
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

	// Collect in job (corpus) order, so the report is independent of
	// worker scheduling.
	res.Patches = results
	for i := range results {
		res.Timings.accumulate(results[i].Timings)
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
	res.Cache = srctree.Counters().Sub(cache0)
	return res, nil
}

// runGuest spawns a task at the base-kernel entry point (which may be
// trampolined) as uid, runs it to exit and reaps it, returning its exit
// code and its uid at exit.
func runGuest(k *kernel.Kernel, entry string, uid int, args ...int64) (int64, int, error) {
	addr, err := k.Syms.BaseFunc(entry)
	if err != nil {
		return 0, 0, err
	}
	t, err := k.SpawnAt(entry, addr, uid, args...)
	if err != nil {
		return 0, 0, err
	}
	defer k.ReapExited()
	if err := k.RunUntilExit(t, 50_000_000); err != nil {
		return 0, 0, err
	}
	return t.ExitCode, t.UID, nil
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

	who := telemetry.A("cve", c.ID)

	// 1. The vulnerability is live.
	got, _, err := runGuest(k, c.Probe.Entry, c.Probe.UID, c.Probe.Args...)
	if err != nil {
		return fail("pre-probe: %v", err)
	}
	pr.ProbeVulnOK = got == c.Probe.VulnResult
	if !pr.ProbeVulnOK {
		return fail("pre-probe = %d, want %d", got, c.Probe.VulnResult)
	}
	if c.Exploit != nil {
		pr.ExploitTested = true
		code, uid, err := runGuest(k, c.Exploit.Entry, c.Exploit.UID)
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
	var u *core.Update
	pr.Timings.Create, err = stage(opts.Tracer, patch, "create", who, func() (err error) {
		u, err = core.CreateUpdate(tree, c.Patch(), core.CreateOptions{Name: "ksplice-" + c.ID})
		return err
	})
	if err != nil {
		return fail("create: %v", err)
	}

	// 3. ksplice-apply.
	t0 := time.Now()
	sp := patch.Child("apply", who)
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
	opts.Tracer.Record(sp, "run_pre", t0, t0.Add(a.MatchDuration), who)
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
	got, _, err = runGuest(k, c.Probe.Entry, c.Probe.UID, c.Probe.Args...)
	if err != nil {
		return fail("post-probe: %v", err)
	}
	pr.ProbeFixedOK = got == c.Probe.FixedResult
	if !pr.ProbeFixedOK {
		return fail("post-probe = %d, want %d", got, c.Probe.FixedResult)
	}
	if c.Exploit != nil {
		code, uid, err := runGuest(k, c.Exploit.Entry, c.Exploit.UID)
		if err != nil {
			return fail("post-exploit: %v", err)
		}
		pr.ExploitFixedOK = code == c.Exploit.WantFixed && uid != 0
		if !pr.ExploitFixedOK {
			return fail("post-exploit = %d uid %d (exploit not blocked)", code, uid)
		}
	}

	// 5. The kernel still works.
	var stress int64
	pr.Timings.Stress, err = stage(opts.Tracer, patch, "stress", who, func() (err error) {
		stress, err = k.Call("stress_main", int64(opts.StressRounds))
		return err
	})
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
	pr.Timings.Undo, err = stage(opts.Tracer, patch, "undo", who, func() error {
		return mgr.Undo(core.ApplyOptions{})
	})
	if err != nil {
		return fail("undo: %v", err)
	}
	got, _, err = runGuest(k, c.Probe.Entry, c.Probe.UID, c.Probe.Args...)
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
