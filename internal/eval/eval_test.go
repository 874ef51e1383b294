package eval

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gosplice/internal/cvedb"
	"gosplice/internal/telemetry"
)

// The full run is shared across tests: it exercises all 64 updates once.
// It records into its own tracer so the trace-coverage test can assert
// over the span tree without other tests' spans mixed in.
var (
	fullOnce   sync.Once
	fullRes    *Result
	fullErr    error
	fullTracer = telemetry.NewTracer(0)
)

func fullRun(t *testing.T) *Result {
	t.Helper()
	fullOnce.Do(func() {
		fullRes, fullErr = Run(Options{StressRounds: 30, Tracer: fullTracer})
	})
	if fullErr != nil {
		t.Fatalf("eval run: %v", fullErr)
	}
	return fullRes
}

func TestEvalHeadline(t *testing.T) {
	res := fullRun(t)
	if len(res.Patches) != 64 {
		t.Fatalf("evaluated %d patches", len(res.Patches))
	}
	noCode, withCode := 0, 0
	var newLines int
	for _, p := range res.Patches {
		if !p.OK() {
			t.Errorf("%s failed: %s", p.ID, p.Err)
		}
		if p.NeedsNewCode {
			withCode++
			newLines += p.NewCodeLines
		} else {
			noCode++
		}
	}
	// The paper's central numbers: 56 of 64 with no new code; the other 8
	// need about 17 lines each.
	if noCode != 56 || withCode != 8 {
		t.Errorf("no-code/with-code = %d/%d, want 56/8", noCode, withCode)
	}
	if avg := float64(newLines) / float64(withCode); avg < 15 || avg > 18 {
		t.Errorf("average new code lines = %.1f, want ~17", avg)
	}
	head := res.Headline()
	if !strings.Contains(head, "56 of 64") {
		t.Errorf("headline:\n%s", head)
	}
}

func TestEvalSuccessCriteria(t *testing.T) {
	res := fullRun(t)
	for _, p := range res.Patches {
		if !p.Applied {
			t.Errorf("%s: not applied", p.ID)
		}
		if !p.ProbeVulnOK || !p.ProbeFixedOK {
			t.Errorf("%s: probe did not flip (%v/%v)", p.ID, p.ProbeVulnOK, p.ProbeFixedOK)
		}
		if !p.StressOK {
			t.Errorf("%s: stress failed", p.ID)
		}
		if !p.UndoOK {
			t.Errorf("%s: undo failed", p.ID)
		}
		if p.Attempts != 1 {
			t.Errorf("%s: needed %d stop_machine attempts", p.ID, p.Attempts)
		}
		if p.Pause <= 0 || p.Pause > time.Second {
			t.Errorf("%s: implausible pause %v", p.ID, p.Pause)
		}
	}
}

func TestExploitsBlockedByUpdate(t *testing.T) {
	res := fullRun(t)
	tested := 0
	for _, p := range res.Patches {
		if !p.ExploitTested {
			continue
		}
		tested++
		if !p.ExploitVulnOK {
			t.Errorf("%s: exploit did not work pre-update", p.ID)
		}
		if !p.ExploitFixedOK {
			t.Errorf("%s: exploit not blocked post-update", p.ID)
		}
	}
	if tested != 4 {
		t.Errorf("exploit-verified patches: %d, want 4", tested)
	}
}

func TestFigure3Report(t *testing.T) {
	res := fullRun(t)
	fig := res.Figure3()
	// The first bucket dominates, exactly as in the paper.
	if !strings.Contains(fig, " 0- 5   35") {
		t.Errorf("figure 3:\n%s", fig)
	}
	if !strings.Contains(fig, ">80    1") {
		t.Errorf("figure 3 tail:\n%s", fig)
	}
}

func TestTable1Report(t *testing.T) {
	res := fullRun(t)
	tbl := res.Table1()
	for _, want := range []string{
		"2008-0007", "34 lines",
		"2005-2709", "adds field to struct", "48 lines",
		"2007-3851", " 1 lines",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table 1 missing %q:\n%s", want, tbl)
		}
	}
	if n := strings.Count(tbl, "lines"); n != 8 {
		t.Errorf("table 1 has %d rows, want 8:\n%s", n, tbl)
	}
}

func TestInliningIncidence(t *testing.T) {
	res := fullRun(t)
	inlined, explicit := 0, 0
	for _, p := range res.Patches {
		if p.InlineVictim {
			inlined++
		}
		if p.ExplicitInline {
			explicit++
		}
	}
	// 20 of 64 patches modify a function inlined in the run code; only 4
	// of 64 declare it inline (section 6.3).
	if inlined != 20 || explicit != 4 {
		t.Errorf("inlining census = %d/%d, want 20/4", inlined, explicit)
	}
	// Independently verify the flags against the compiler's inliner.
	bad, err := VerifyInliningCensus()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("inline flags disagree with the compiler for: %v", bad)
	}
}

func TestAmbiguousSymbolCensus(t *testing.T) {
	res := fullRun(t)
	a := res.Ambiguity
	if a.TotalSymbols == 0 || a.AmbiguousSymbols == 0 {
		t.Fatalf("census empty: %+v", a)
	}
	// The corpus kernel, like Linux 2.6.27, has a meaningful fraction of
	// ambiguous symbols spread across several units (paper: 7.9% of
	// symbols, 21.1% of units). The synthetic kernel's exact fractions
	// are recorded in EXPERIMENTS.md; here we assert the phenomenon.
	if a.AmbiguousSymbols < 10 {
		t.Errorf("too few ambiguous symbols: %+v", a)
	}
	if a.UnitsWithAmbig < 5 {
		t.Errorf("too few units with ambiguity: %+v", a)
	}
	ambigPatches := 0
	for _, p := range res.Patches {
		if p.AmbiguousSym {
			ambigPatches++
		}
	}
	if ambigPatches != 5 {
		t.Errorf("patches touching ambiguous symbols = %d, want 5", ambigPatches)
	}
}

func TestStackedUpdatesKeepApplied(t *testing.T) {
	// The "eliminate all kernel security reboots" mode: apply one
	// release's updates without undoing — they stack on one kernel.
	only := map[string]bool{}
	for _, c := range cvedb.ForVersion(cvedb.Versions[1]) {
		only[c.ID] = true
	}
	res, err := Run(Options{Only: only, KeepApplied: true, StressRounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patches) == 0 {
		t.Fatal("no patches for version")
	}
	for _, p := range res.Patches {
		if !p.OK() {
			t.Errorf("%s: %s", p.ID, p.Err)
		}
	}
}

func TestReportRenders(t *testing.T) {
	res := fullRun(t)
	rep := res.Report()
	for _, section := range []string{
		"Evaluation:", "Figure 3", "Table 1", "Inlining census",
		"Ambiguous symbol census", "stop_machine interruption",
	} {
		if !strings.Contains(rep, section) {
			t.Errorf("report missing %q", section)
		}
	}
}

// TestConcurrentRunsAreIndependent runs two evaluations at once over
// disjoint corpus halves, each itself using two workers. With the shared
// build/link caches and per-patch kernel clones underneath, the runs must
// not interfere; under -race this is the data-race soak for the whole
// parallel pipeline.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	all := cvedb.All()
	half := [2]map[string]bool{{}, {}}
	for i, c := range all {
		half[i%2][c.ID] = true
	}
	var (
		wg  sync.WaitGroup
		res [2]*Result
		err [2]error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], err[i] = Run(Options{Only: half[i], StressRounds: 5, Workers: 2})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err[i] != nil {
			t.Fatalf("run %d: %v", i, err[i])
		}
		if len(res[i].Patches) != 32 {
			t.Fatalf("run %d evaluated %d patches, want 32", i, len(res[i].Patches))
		}
		for _, p := range res[i].Patches {
			if !p.OK() {
				t.Errorf("run %d: %s failed: %s", i, p.ID, p.Err)
			}
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts: the report tables must be
// byte-identical whatever the worker count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ids := map[string]bool{}
	for i, c := range cvedb.All() {
		if i%4 == 0 {
			ids[c.ID] = true
		}
	}
	var tables [2][3]string
	for i, workers := range []int{1, 8} {
		res, err := Run(Options{Only: ids, StressRounds: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = [3]string{res.Headline(), res.Figure3(), res.Table1()}
	}
	for j, name := range []string{"headline", "figure 3", "table 1"} {
		if tables[0][j] != tables[1][j] {
			t.Errorf("%s differs between -j 1 and -j 8:\n%s\n--- vs ---\n%s", name, tables[0][j], tables[1][j])
		}
	}
}

// TestTimingsPopulated: a run accounts wall-clock time to every stage it
// actually executed.
func TestTimingsPopulated(t *testing.T) {
	res := fullRun(t)
	tm := res.Timings
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"Boot", tm.Boot}, {"Create", tm.Create}, {"RunPre", tm.RunPre},
		{"Apply", tm.Apply}, {"Stress", tm.Stress}, {"Undo", tm.Undo},
	} {
		if st.d <= 0 {
			t.Errorf("stage %s has no recorded time (%v)", st.name, st.d)
		}
	}
	if tm.Total() <= 0 {
		t.Errorf("total = %v", tm.Total())
	}
	if !strings.Contains(res.TimingsTable(), "run-pre matching") {
		t.Errorf("timings table missing stages:\n%s", res.TimingsTable())
	}
}
