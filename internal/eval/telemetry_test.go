// Telemetry coverage of the eval pipeline: every patch leaves a full
// span tree behind, the stage histograms and outcome counters move, and
// the queue-depth gauge returns to its resting level.
package eval

import (
	"bytes"
	"strings"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/telemetry"
)

// patchStages are the spans every evaluated patch must leave in the
// tracer ring (run_pre is recorded from apply's reported duration).
var patchStages = []string{"patch", "clone", "create", "run_pre", "apply", "stress", "undo"}

// TestTraceCoverageFullCorpus: a 64-CVE run must produce one span per
// patch per stage it ran, correctly parented under that patch's root,
// plus build and boot spans per release. It checks two runs: the shared
// run, where every patch clones and undoes, and a stacking run, where
// only each release's first patch clones and none undoes.
func TestTraceCoverageFullCorpus(t *testing.T) {
	fullRun(t)
	stackTracer := telemetry.NewTracer(0)
	if _, err := Run(Options{KeepApplied: true, StressRounds: 5, Tracer: stackTracer}); err != nil {
		t.Fatalf("stacking run: %v", err)
	}
	for _, run := range []struct {
		name    string
		recs    []telemetry.SpanRecord
		stacked bool
	}{
		{"shared run", fullTracer.Snapshot(), false},
		{"stacking run", stackTracer.Snapshot(), true},
	} {
		roots := map[uint64]string{} // patch root span ID -> cve
		perCVE := map[string]map[string]int{}
		perVersion := map[string]map[string]int{}
		for _, rec := range run.recs {
			if rec.Name == "patch" {
				roots[rec.ID] = rec.Attr("cve")
			}
			if cve := rec.Attr("cve"); cve != "" {
				if perCVE[cve] == nil {
					perCVE[cve] = map[string]int{}
				}
				perCVE[cve][rec.Name]++
			} else if v := rec.Attr("version"); v != "" {
				if perVersion[v] == nil {
					perVersion[v] = map[string]int{}
				}
				perVersion[v][rec.Name]++
			}
		}

		var patches int
		for _, version := range cvedb.Versions {
			for _, stage := range []string{"build", "boot"} {
				if perVersion[version][stage] != 1 {
					t.Errorf("%s: %s: %d %s spans, want 1", run.name, version, perVersion[version][stage], stage)
				}
			}
			for i, c := range cvedb.ForVersion(version) {
				patches++
				for _, stage := range patchStages {
					want := 1
					switch {
					case run.stacked && stage == "clone" && i > 0:
						want = 0 // stacked on the release's first clone
					case run.stacked && stage == "undo":
						want = 0
					}
					if got := perCVE[c.ID][stage]; got != want {
						t.Errorf("%s: %s: %d %s spans, want %d", run.name, c.ID, got, stage, want)
					}
				}
			}
		}
		if patches != 64 {
			t.Fatalf("corpus has %d patches, want 64", patches)
		}

		// Every stage span hangs under its own patch's root: the tid lanes
		// in the Chrome export separate patches, so cross-linking would
		// render one patch's stages on another's track.
		for _, rec := range run.recs {
			if rec.Name == "patch" || rec.Attr("cve") == "" {
				continue
			}
			if cve, ok := roots[rec.Root]; !ok || cve != rec.Attr("cve") {
				t.Errorf("%s: %s span for %s rooted under %q", run.name, rec.Name, rec.Attr("cve"), cve)
			}
		}
	}

	// The report table is fed by the same spans, so both views agree.
	if fullRes.Timings.Create <= 0 || fullRes.Timings.Apply <= 0 {
		t.Errorf("span-fed stage timings empty: %+v", fullRes.Timings)
	}
}

// TestEvalMetricsSingleRun pins the registry side: a one-patch run moves
// the ok counter by exactly one, observes every per-patch stage, and
// leaves the queue gauge where it found it.
func TestEvalMetricsSingleRun(t *testing.T) {
	cve := cvedb.ForVersion(cvedb.Versions[0])[0]
	before := telemetry.Default().Snapshot()
	res, err := Run(Options{
		Only:         map[string]bool{cve.ID: true},
		StressRounds: 5,
		Tracer:       telemetry.NewTracer(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patches) != 1 || !res.Patches[0].OK() {
		t.Fatalf("run: %+v", res.Patches)
	}
	after := telemetry.Default().Snapshot()

	if d := after.Counter(`gosplice_eval_patches_total{outcome="ok"}`) -
		before.Counter(`gosplice_eval_patches_total{outcome="ok"}`); d != 1 {
		t.Errorf("ok counter moved %d, want 1", d)
	}
	if d := after.Counter(`gosplice_eval_patches_total{outcome="fail"}`) -
		before.Counter(`gosplice_eval_patches_total{outcome="fail"}`); d != 0 {
		t.Errorf("fail counter moved %d, want 0", d)
	}
	if got, want := after.Gauge("gosplice_eval_queue_depth"), before.Gauge("gosplice_eval_queue_depth"); got != want {
		t.Errorf("queue gauge rests at %d, was %d before the run", got, want)
	}
	for _, stage := range []string{"clone", "create", "run_pre", "apply", "stress", "undo"} {
		id := `gosplice_eval_stage_seconds{stage="` + stage + `"}`
		if after.Histograms[id].Count <= before.Histograms[id].Count {
			t.Errorf("stage histogram %s never observed", id)
		}
	}
}

// TestVerboseStageProgress: with Verbose set, the span-event hook
// streams one progress line per completed stage to Log.
func TestVerboseStageProgress(t *testing.T) {
	cve := cvedb.ForVersion(cvedb.Versions[0])[0]
	var buf bytes.Buffer
	_, err := Run(Options{
		Only:         map[string]bool{cve.ID: true},
		StressRounds: 5,
		Log:          &buf,
		Verbose:      true,
		Tracer:       telemetry.NewTracer(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, stage := range patchStages {
		if !strings.Contains(out, stage+" ") {
			t.Errorf("verbose log lacks a %q stage line:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, cve.ID) {
		t.Errorf("verbose log never names %s:\n%s", cve.ID, out)
	}
}
