package gosplice

// The benchmark harness: every table and figure of the paper's evaluation
// has a bench that regenerates it, plus micro-benchmarks for the costs
// the paper quotes (the ~0.7 ms stop_machine pause of section 5.2, the
// few-cycles trampoline overhead of section 2) and ablations for the
// design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the reproduced quantities (counts, pauses, bytes)
// alongside the usual ns/op.

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/diffutil"
	"gosplice/internal/eval"
	"gosplice/internal/fleet"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// TestMain exports the process-wide telemetry snapshot (the Default
// registry, which every instance registry rolls up into) to
// $GOSPLICE_TELEMETRY_OUT after the
// benchmarks run; `make bench-json` feeds the file to benchjson so
// BENCH_eval.json carries the counters behind the custom metrics.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("GOSPLICE_TELEMETRY_OUT"); path != "" {
		f, err := os.Create(path)
		if err == nil {
			err = telemetry.WriteJSON(f, telemetry.Default())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "telemetry out:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// BenchmarkEvalAll64 regenerates the headline result (abstract, section
// 6.3): all 64 significant vulnerabilities taken through the full
// pipeline, sequentially (Workers pinned to 1 so the number is a stable
// baseline). Metrics: patches applied without new code, with custom
// code, and the average stop_machine pause.
func BenchmarkEvalAll64(b *testing.B) {
	benchEvalAll64(b, 1, nil)
}

// BenchmarkEvalAll64J2/J4/J8 pin the worker count — every patch gets
// its own kernel cloned copy-on-write from the per-release boot cache, so
// the pipeline parallelizes across patches — recording the speedup
// curve (`make bench-json` stores each as its own stanza in
// BENCH_eval.json). The interesting ratio is each stanza's ns/op against
// the serial BenchmarkEvalAll64.
func BenchmarkEvalAll64J2(b *testing.B) { benchEvalAll64(b, 2, nil) }
func BenchmarkEvalAll64J4(b *testing.B) { benchEvalAll64(b, 4, nil) }
func BenchmarkEvalAll64J8(b *testing.B) { benchEvalAll64(b, 8, nil) }

// BenchmarkEvalAll64TracingOff is the serial evaluation with span
// recording disabled (NopTracer's zero-capacity ring makes every commit
// an early return). Compare ns/op against BenchmarkEvalAll64 — the
// default-tracer run — for the overhead of always-on tracing; the two
// should sit within a few percent of each other.
func BenchmarkEvalAll64TracingOff(b *testing.B) {
	benchEvalAll64(b, 1, telemetry.NopTracer())
}

// benchEvalAll64 runs the full pipeline with the given worker count;
// tracer nil means the process default (spans recorded).
func benchEvalAll64(b *testing.B, workers int, tracer *telemetry.Tracer) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Run(eval.Options{StressRounds: 20, Workers: workers, Tracer: tracer})
		if err != nil {
			b.Fatal(err)
		}
		noCode, withCode, ok := 0, 0, 0
		var pause time.Duration
		for _, p := range res.Patches {
			if p.OK() {
				ok++
			}
			if p.NeedsNewCode {
				withCode++
			} else {
				noCode++
			}
			pause += p.Pause
		}
		if ok != 64 {
			b.Fatalf("only %d/64 updates succeeded", ok)
		}
		b.ReportMetric(float64(noCode), "patches-no-new-code")
		b.ReportMetric(float64(withCode), "patches-custom-code")
		b.ReportMetric(float64(pause.Nanoseconds())/64, "pause-ns/update")
		// Incremental-create effectiveness: Create-stage wall time per
		// patch and the cache hit rates behind it.
		b.ReportMetric(float64(res.Timings.Create.Nanoseconds())/float64(len(res.Patches)), "create-ns/patch")
		c := res.Cache
		if total := c.UnitHits + c.UnitMisses; total > 0 {
			b.ReportMetric(100*float64(c.UnitHits)/float64(total), "unit-cache-hit-%")
		}
	}
}

// BenchmarkEvalAll64DiskStore measures the persistent artifact store
// under the full evaluation: each iteration runs the 64-CVE pipeline
// cold against an empty disk-backed store, then again through a fresh
// store over the now-populated directory — what a restarted
// ksplice-eval process sees. Metrics record the warm run's disk-tier
// hit rates, how many units it really recompiled (should be 0), and
// the store's on-disk footprint.
func BenchmarkEvalAll64DiskStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		s1, err := store.New(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		prev := srctree.SetStore(s1)
		if _, err := eval.Run(eval.Options{StressRounds: 20, Workers: 1}); err != nil {
			b.Fatal(err)
		}
		s2, err := store.New(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		srctree.SetStore(s2)
		res, err := eval.Run(eval.Options{StressRounds: 20, Workers: 1})
		srctree.SetStore(prev)
		if err != nil {
			b.Fatal(err)
		}
		c := res.Cache
		if total := c.UnitHits + c.UnitDiskHits + c.UnitMisses; total > 0 {
			b.ReportMetric(100*float64(c.UnitDiskHits)/float64(total), "unit-disk-hit-%")
		}
		b.ReportMetric(float64(c.UnitMisses), "warm-unit-recompiles")
		if total := c.LinkHits + c.LinkDiskHits + c.LinkMisses; total > 0 {
			b.ReportMetric(100*float64(c.LinkDiskHits)/float64(total), "link-disk-hit-%")
		}
		entries, diskBytes := s2.DiskUsage()
		b.ReportMetric(float64(entries), "disk-entries")
		b.ReportMetric(float64(diskBytes), "disk-bytes")
	}
}

// BenchmarkFigure3PatchLengths regenerates the Figure 3 histogram from
// the corpus diffs. Metrics: the <=5-line and <=15-line shares.
func BenchmarkFigure3PatchLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		within5, within15 := 0, 0
		for _, c := range cvedb.All() {
			loc := c.PatchLoC()
			if loc <= 5 {
				within5++
			}
			if loc <= 15 {
				within15++
			}
		}
		b.ReportMetric(float64(within5), "patches<=5loc")
		b.ReportMetric(float64(within15), "patches<=15loc")
	}
}

// BenchmarkTable1Updates regenerates Table 1: the eight data-semantics
// patches are built into hot updates (hooks and all). Metric: average
// lines of programmer-written new code.
func BenchmarkTable1Updates(b *testing.B) {
	var table1 []*cvedb.CVE
	for _, c := range cvedb.All() {
		if c.DataSemantics {
			table1 = append(table1, c)
		}
	}
	if len(table1) != 8 {
		b.Fatalf("found %d Table 1 entries", len(table1))
	}
	for i := 0; i < b.N; i++ {
		lines := 0
		for _, c := range table1 {
			tree := cvedb.Tree(c.Version)
			u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !u.HasHooks() {
				b.Fatalf("%s: no hooks in update", c.ID)
			}
			lines += c.NewCodeLines()
		}
		b.ReportMetric(float64(lines)/8, "new-code-lines/patch")
	}
}

// BenchmarkStopMachinePause measures the stop_machine interruption window
// of a real splice on a busy kernel — the paper's ~0.7 ms claim (sections
// 2 and 5.2). Four stress_main threads run between iterations, so each
// capture finds them somewhere new. The pause-ns metric is the mean
// Applied.Pause: the window during which no thread can be scheduled.
func BenchmarkStopMachinePause(b *testing.B) {
	c, _ := cvedb.ByID("CVE-2006-2451")
	tree := cvedb.Tree(c.Version)
	k, err := kernel.Boot(tree)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := k.Spawn("bg", "stress_main", 0, 1_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
	mgr := core.NewManager(k)
	u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var pause time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunSteps(10_000)
		a, err := mgr.Apply(u, core.ApplyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pause += a.Pause
		if err := mgr.Undo(core.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pause.Nanoseconds())/float64(b.N), "pause-ns")
}

// BenchmarkApplyUndo measures a full splice cycle — run-pre matching,
// module load, stop_machine, trampolines — and its reversal, on a live
// kernel (section 5).
func BenchmarkApplyUndo(b *testing.B) {
	c, _ := cvedb.ByID("CVE-2006-2451")
	tree := cvedb.Tree(c.Version)
	k, err := kernel.Boot(tree)
	if err != nil {
		b.Fatal(err)
	}
	mgr := core.NewManager(k)
	u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Undo(core.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallUnpatched and BenchmarkCallPatched measure the section 2
// claim that calls to replaced functions take only a few cycles longer
// (one extra jump): the guest-instruction count per call rises by
// exactly 1.
func BenchmarkCallUnpatched(b *testing.B) {
	benchCallOverhead(b, false)
}

func BenchmarkCallPatched(b *testing.B) {
	benchCallOverhead(b, true)
}

func benchCallOverhead(b *testing.B, patched bool) {
	c, _ := cvedb.ByID("CVE-2006-3626")
	tree := cvedb.Tree(c.Version)
	k, err := kernel.Boot(tree)
	if err != nil {
		b.Fatal(err)
	}
	if patched {
		mgr := core.NewManager(k)
		u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	var addr uint32
	for _, s := range k.Syms.Lookup("sys_procset") {
		if s.Func && s.Module == "" {
			addr = s.Addr
		}
	}
	steps0 := k.TotalSteps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.CallIsolatedAddr(addr, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(k.TotalSteps()-steps0)/float64(b.N), "guest-insns/call")
}

// BenchmarkRunPreMatch measures the matching engine (section 4.3): one
// op run-pre matches every helper unit of the 64 corpus updates against
// a booted kernel of its release, as Apply does before it splices.
// Metric: pre text bytes verified per op.
func BenchmarkRunPreMatch(b *testing.B) {
	type unit struct {
		k      *kernel.Kernel
		helper *obj.File
	}
	var units []unit
	kernels := map[string]*kernel.Kernel{}
	for _, c := range cvedb.All() {
		tree := cvedb.Tree(c.Version)
		k := kernels[c.Version]
		if k == nil {
			var err error
			if k, err = kernel.Boot(tree); err != nil {
				b.Fatal(err)
			}
			kernels[c.Version] = k
		}
		u, err := core.CreateUpdate(tree, c.Patch(), core.CreateOptions{Name: "bench"})
		if err != nil {
			b.Fatalf("%s: %v", c.ID, err)
		}
		for _, uu := range u.Units {
			if uu.Helper != nil {
				units = append(units, unit{k, uu.Helper})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		matched = 0
		for _, u := range units {
			u.k.Lock()
			res, err := core.MatchUnit(u.k.LockedMem(), u.k.Syms, u.helper)
			u.k.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			matched += res.BytesMatched
		}
	}
	b.ReportMetric(float64(matched), "pre-bytes-matched")
}

// BenchmarkPrePostDiff measures cold ksplice-create end to end for a
// small security patch (section 3), as a fresh process would run it:
// each iteration starts from an empty artifact store, so the pre build
// compiles every unit, the post build recompiles the patched one, and
// both fill the store.
func BenchmarkPrePostDiff(b *testing.B) {
	defer srctree.SetStore(srctree.ActiveStore())
	benchPrePostDiff(b, true)
}

// BenchmarkPrePostDiffIncremental is the same create over a warm store:
// both builds are served whole and the differ skips unchanged units by
// pointer identity, so the cost is the patch, the tree hashes and the
// diff. Compare against BenchmarkPrePostDiff.
func BenchmarkPrePostDiffIncremental(b *testing.B) {
	benchPrePostDiff(b, false)
}

func benchPrePostDiff(b *testing.B, cold bool) {
	c, _ := cvedb.ByID("CVE-2008-0600")
	tree := cvedb.Tree(c.Version)
	patch := c.Patch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			srctree.SetStore(store.MustNew(store.Options{}))
		}
		u, err := core.CreateUpdate(tree, patch, core.CreateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(u.Units) == 0 {
			b.Fatal("empty update")
		}
	}
}

// Ablation (section 3.1): how much object code appears changed when the
// kernel is compiled as one .text per unit (the default, where a single
// length change cascades through relative jumps and function offsets)
// versus with per-function sections. Metrics: bytes that differ between
// the pre and post objects of the patched unit under each option.
func BenchmarkDiffGranularityWholeText(b *testing.B) {
	benchDiffGranularity(b, codegen.KernelBuild())
}

func BenchmarkDiffGranularityFuncSections(b *testing.B) {
	benchDiffGranularity(b, codegen.KspliceBuild())
}

func benchDiffGranularity(b *testing.B, opts codegen.Options) {
	c, _ := cvedb.ByID("CVE-2006-2451")
	tree := cvedb.Tree(c.Version)
	post, err := tree.Patch(c.Patch())
	if err != nil {
		b.Fatal(err)
	}
	const unit = "kernel/c2006_2451.mc"
	b.ResetTimer()
	var diff int
	for i := 0; i < b.N; i++ {
		preF, err := srctree.BuildUnit(tree, unit, opts)
		if err != nil {
			b.Fatal(err)
		}
		postF, err := srctree.BuildUnit(post, unit, opts)
		if err != nil {
			b.Fatal(err)
		}
		diff = 0
		for _, ps := range preF.Sections {
			qs := postF.Section(ps.Name)
			if qs == nil || !bytes.Equal(ps.Data, qs.Data) {
				// Whole differing section counts: without per-function
				// granularity the entire .text must be treated as changed.
				diff += int(ps.Len())
			}
		}
	}
	b.ReportMetric(float64(diff), "changed-text-bytes")
}

// BenchmarkKernelBuild measures a full cold corpus kernel build (74
// units: lex, parse, check, inline, codegen, relax, and the store
// inserts). Each iteration builds into an empty artifact store, so every
// iteration pays the real compile cost.
func BenchmarkKernelBuild(b *testing.B) {
	defer srctree.SetStore(srctree.ActiveStore())
	tree := cvedb.Tree(cvedb.Versions[0])
	for i := 0; i < b.N; i++ {
		srctree.SetStore(store.MustNew(store.Options{}))
		if _, err := srctree.BuildCached(tree, codegen.KernelBuild()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelBuildIncremental measures the build of a tree in which
// exactly one unit changed since the previous build — the ksplice-create
// post-build shape. Each iteration edits the same file differently, so
// one unit really recompiles and the rest assemble from the unit cache;
// compare against BenchmarkKernelBuild for the incremental speedup. It
// builds into its own store, warmed with the unmodified tree, so its
// cost does not depend on what earlier benchmarks left in the
// process-wide one.
func BenchmarkKernelBuildIncremental(b *testing.B) {
	prev := srctree.SetStore(store.MustNew(store.Options{}))
	defer srctree.SetStore(prev)
	base := cvedb.Tree(cvedb.Versions[0])
	const unit = "drivers/dst_ca.mc"
	src, ok := base.File(unit)
	if !ok {
		b.Fatalf("corpus tree lacks %s", unit)
	}
	if _, err := srctree.BuildCached(base, codegen.KernelBuild()); err != nil {
		b.Fatal(err)
	}
	// Derive every edited tree up front: the loop times the builds only.
	trees := make([]*srctree.Tree, b.N)
	for i := range trees {
		t, err := base.Patch(diffutil.DiffFiles(unit, src, src+fmt.Sprintf("// rev %d\n", i)))
		if err != nil {
			b.Fatal(err)
		}
		trees[i] = t
	}
	b.ResetTimer()
	for _, tree := range trees {
		if _, err := srctree.BuildCached(tree, codegen.KernelBuild()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Channel distribution benchmarks (section 8 at fleet scale) ---

// publishBenchChannel publishes version's full CVE series (tarball
// deltas included) into a fresh directory.
func publishBenchChannel(b *testing.B, version string) string {
	b.Helper()
	dir := b.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cvedb.ForVersion(version) {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// benchNullBlobs disables delta reconstruction (no base is ever held),
// for the full-fetch baseline.
type benchNullBlobs struct{}

func (benchNullBlobs) Get(string) ([]byte, bool) { return nil, false }
func (benchNullBlobs) Put(string, []byte)        {}

// benchSubscribe boots a fresh machine against an empty build store —
// building the release from source — and subscribes it to the channel
// over HTTP, fetching every tarball whole; it fails the bench if the
// machine does not reach the head.
func benchSubscribe(b *testing.B, url, version string, nCVEs int) {
	b.Helper()
	prev := srctree.SetStore(store.MustNew(store.Options{}))
	defer srctree.SetStore(prev)
	tr := channel.NewHTTPTransport(url, channel.HTTPOptions{})
	br, err := srctree.BuildCached(cvedb.Tree(version), codegen.KernelBuild())
	if err != nil {
		b.Fatal(err)
	}
	im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
	if err != nil {
		b.Fatal(err)
	}
	k, err := kernel.BootImage(br, im, 0)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := channel.NewClient(channel.ClientConfig{Transport: tr, Blobs: benchNullBlobs{}})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.Bind(core.NewManager(k), 0)
	applied, err := cl.Sync(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if len(applied) != nCVEs {
		b.Fatalf("subscribed %d of %d", len(applied), nCVEs)
	}
}

// BenchmarkChannelSubscribeSourceBuild: a new machine builds the
// release from source and fetches every tarball whole.
func BenchmarkChannelSubscribeSourceBuild(b *testing.B) {
	version := cvedb.Versions[0]
	nCVEs := len(cvedb.ForVersion(version))
	srv := httptest.NewServer(channel.NewServer(publishBenchChannel(b, version)))
	defer srv.Close()
	before := telemetry.Default().Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSubscribe(b, srv.URL, version, nCVEs)
	}
	b.StopTimer()
	after := telemetry.Default().Snapshot()
	wire := after.Counter("gosplice_channel_bytes_over_wire_total") - before.Counter("gosplice_channel_bytes_over_wire_total")
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/subscribe")
}

// BenchmarkChannelDeltaBandwidth records the wire cost of advancing one
// position for a subscriber who holds the previous one, across every
// adjacent pair in all four releases: the full tarball, a flate of it
// (the best a compression-only scheme does), and the published binary
// delta. The delta-reduction ratio is the acceptance number (>= 5x).
// Each iteration reconstructs every pair's tarball from its base and
// delta and checks the result against the manifest digest, so ns/op and
// allocs/op price the subscriber's delta-apply layer.
func BenchmarkChannelDeltaBandwidth(b *testing.B) {
	type sums struct{ full, compressed, delta int64 }
	type pair struct {
		base, delta []byte
		baseDigest  string
		result      channel.Entry
	}
	var s sums
	var pairs []pair
	for _, version := range cvedb.Versions {
		dir := publishBenchChannel(b, version)
		m, err := channel.ReadManifest(dir)
		if err != nil {
			b.Fatal(err)
		}
		var prev []byte
		for _, e := range m.Updates {
			raw, err := os.ReadFile(dir + "/" + e.File)
			if err != nil {
				b.Fatal(err)
			}
			base := prev
			prev = raw
			d := m.DeltaFor(e.Sha256)
			if d == nil {
				continue // position 0 has no predecessor
			}
			delta, err := os.ReadFile(dir + "/blobs/" + d.Sha256)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			zw, _ := flate.NewWriter(&buf, flate.BestCompression)
			zw.Write(raw)
			zw.Close()
			s.full += e.Size
			s.compressed += int64(buf.Len())
			s.delta += d.Size
			pairs = append(pairs, pair{base: base, delta: delta, baseDigest: d.BaseSha256, result: e})
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no adjacent-position deltas published")
	}
	if s.delta*5 > s.full {
		b.Fatalf("delta bytes %d not 5x smaller than full %d", s.delta, s.full)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			out, err := diffutil.ApplyDelta(p.base, p.baseDigest, p.delta, p.result.Size)
			if err != nil {
				b.Fatal(err)
			}
			if digest, _ := core.TarDigest(out); digest != p.result.Sha256 {
				b.Fatalf("%s: reconstructed digest %.12s…, manifest says %.12s…", p.result.Name, digest, p.result.Sha256)
			}
		}
	}
	b.StopTimer()
	n := float64(len(pairs))
	b.ReportMetric(float64(s.full)/n, "full-bytes/update")
	b.ReportMetric(float64(s.compressed)/n, "compressed-bytes/update")
	b.ReportMetric(float64(s.delta)/n, "delta-bytes/update")
	b.ReportMetric(float64(s.full)/float64(s.delta), "delta-reduction-x")
}

// BenchmarkBoot measures build + link + boot + kinit.
func BenchmarkBoot(b *testing.B) {
	tree := cvedb.Tree(cvedb.Versions[0])
	for i := 0; i < b.N; i++ {
		if _, err := kernel.Boot(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyscallRoundTrip measures guest syscall dispatch through the
// in-memory sys_call_table. Metric: guest instructions per syscall.
func BenchmarkSyscallRoundTrip(b *testing.B) {
	tree := cvedb.Tree(cvedb.Versions[0])
	k, err := kernel.Boot(tree)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := k.Syms.ResolveUnique("exploit_2006_3626")
	if err != nil {
		b.Fatal(err)
	}
	steps0 := k.TotalSteps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.CallIsolatedAddr(addr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(k.TotalSteps()-steps0)/float64(b.N), "guest-insns/op")
}

// BenchmarkStackedUpdates measures section 5.4: the cost of the Nth
// update when N-1 are already resident (run-pre matching binds against
// the newest replacement code each time).
func BenchmarkStackedUpdates(b *testing.B) {
	c, _ := cvedb.ByID("CVE-2005-4639")
	base := cvedb.Tree(c.Version)
	for i := 0; i < b.N; i++ {
		k, err := kernel.Boot(base)
		if err != nil {
			b.Fatal(err)
		}
		mgr := core.NewManager(k)
		tree := base
		patch := c.Patch()
		for depth := 0; depth < 4; depth++ {
			u, err := core.CreateUpdate(tree, patch, core.CreateOptions{Name: fmt.Sprintf("stack-%d", depth)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
				b.Fatal(err)
			}
			tree, err = tree.Patch(patch)
			if err != nil {
				b.Fatal(err)
			}
			patch = nextStackPatch(depth)
		}
	}
}

// nextStackPatch produces follow-up patches that keep modifying the same
// function.
func nextStackPatch(depth int) string {
	from := "ca_slots[slot]"
	if depth > 0 {
		from = fmt.Sprintf("ca_slots[slot] + %d", depth*100)
	}
	to := fmt.Sprintf("ca_slots[slot] + %d", (depth+1)*100)
	return fmt.Sprintf(`--- a/drivers/dst_ca.mc
+++ b/drivers/dst_ca.mc
@@ -11,5 +11,5 @@
 	if (debug) {
 		printk("dst_ca: slot query\n");
 	}
-	return %s;
+	return %s;
 }
`, from, to)
}

// BenchmarkFleetRollout drives a full canary rollout (1% -> 10% -> 100%
// rings, health-gated promotion over /fleet/health) across a
// mixed-release fleet each iteration, against pre-published channels.
// clients/sec is the fleet convergence rate; wire-bytes/rollout is the
// total content the fleet pulled (tarball deltas doing their work at
// fleet scale).
func BenchmarkFleetRollout(b *testing.B) {
	dirs := map[string]string{}
	for _, v := range cvedb.Versions {
		dirs[v] = publishBenchChannel(b, v)
	}
	const clients = 96
	var wire, applied uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := fleet.New(fleet.Config{
			Clients:     clients,
			ChannelDirs: dirs,
			Workers:     8,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := o.Run(context.Background())
		o.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Halted {
			b.Fatalf("healthy rollout halted at ring %d", res.HaltedRing)
		}
		wire += res.BytesOverWire
		applied += res.Applied
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(clients*b.N)/secs, "clients/sec")
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/rollout")
	b.ReportMetric(float64(applied)/float64(b.N), "updates-applied/rollout")
}

// BenchmarkCrashRecovery measures the cost of coming back from a kill:
// each iteration a subscriber is crashed at a written journal append
// mid-sync (setup, untimed), then a "rebooted" process over the same
// state dir boots a fresh kernel, replays the apply journal from the
// local blob cache, and syncs the rest of the way to head — the timed
// half is exactly the death-to-converged recovery path. Metric:
// journal-replayed/op is how many applies recovery served from local
// state instead of the wire.
func BenchmarkCrashRecovery(b *testing.B) {
	version := cvedb.Versions[0]
	dir := publishBenchChannel(b, version)
	tr := channel.NewDirTransport(dir)
	head := len(cvedb.ForVersion(version))
	run := func(stateDir string, hook crashpoint.Hook) (int, *crashpoint.Death) {
		k, err := kernel.Boot(cvedb.Tree(version))
		if err != nil {
			b.Fatal(err)
		}
		cl, err := channel.NewClient(channel.ClientConfig{
			Name:      "crash-bench",
			Transport: tr,
			StateDir:  stateDir,
			Crash:     hook,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		mgr := core.NewManager(k)
		ctx := context.Background()
		death := crashpoint.Catch(func() {
			if _, err := cl.RestoreMachine(ctx, mgr, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Sync(ctx); err != nil {
				b.Fatal(err)
			}
		})
		return cl.Position(), death
	}
	var replayed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stateDir, err := os.MkdirTemp("", "crash-bench-")
		if err != nil {
			b.Fatal(err)
		}
		// Appends run rebase(1), then begin/commit pairs (2k, 2k+1): hit
		// 2*head is the final update's begin — it dies fetched-but-unapplied,
		// the worst recovery position.
		plan := crashpoint.NewPlan("channel.journal.append.synced", 2*head)
		if _, death := run(stateDir, plan.Hook()); death == nil {
			b.Fatal("crash point never fired")
		}
		b.StartTimer()
		pos, death := run(stateDir, nil)
		b.StopTimer()
		if death != nil {
			b.Fatalf("recovery died: %v", death)
		}
		if pos != head {
			b.Fatalf("recovery reached position %d of %d", pos, head)
		}
		replayed += head - 1
		os.RemoveAll(stateDir)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(replayed)/float64(b.N), "journal-replayed/op")
}
