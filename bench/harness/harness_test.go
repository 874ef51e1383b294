package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gosplice/internal/telemetry"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {100, 5}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		want, got float64
	}{
		{1000, 99, 99}, // exactly 10 beyond p99
		{999, 99, 98},  // p99 would leave 9
		{500, 99, 98},
		{200, 99, 95}, // 95*200/100 ranks exactly 190
		{100, 90, 90},
		{75, 90, 86},
		{24, 90, 58},
		{15, 99, 50}, // never below the median
		{0, 99, 50},
	} {
		if p := tailPercentile(tc.n, tc.want); p != tc.got {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, p, tc.got)
		}
	}
	// The property itself, over every size: at least minTail samples lie
	// strictly beyond the value reported.
	for n := 20; n <= 2000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, tailPercentile(n, 99))
		if beyond := n - 1 - int(v); beyond < minTail {
			t.Fatalf("n=%d: only %d samples beyond the tail", n, beyond)
		}
	}
}

func TestThroughputIgnoresASlowStretch(t *testing.T) {
	steps := make([]stepTime, 20)
	for i := range steps {
		steps[i] = stepTime{ok: 2, d: 100 * time.Millisecond} // 20 ops/s
	}
	steps[3].d, steps[4].d = time.Second, time.Second // one stretch stalls
	if got := throughput(steps); got != 20 {
		t.Errorf("throughput = %v ops/s, want 20", got)
	}
	if got := throughput(steps[:3]); got != 20 { // fewer steps than stretches
		t.Errorf("throughput of 3 steps = %v ops/s, want 20", got)
	}
	if got := throughput(nil); got != 0 {
		t.Errorf("throughput of nothing = %v, want 0", got)
	}
}

func TestYardstickScalesTimesAndRates(t *testing.T) {
	y := &yardstick{samples: make([][]float64, len(yardKernels))}
	if got := y.slowdown(); got != 1 {
		t.Errorf("slowdown with no kernel run = %v, want 1", got)
	}
	// One kernel at 4x nominal and one at 1x: the geometric mean is 2.
	y.samples[0] = []float64{4 * yardKernels[0].nominal, 3 * yardKernels[0].nominal, 5 * yardKernels[0].nominal}
	y.samples[1] = []float64{yardKernels[1].nominal}
	s := y.slowdown()
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("slowdown = %v, want 2", s)
	}
	for _, tc := range []struct {
		unit    string
		v, want float64
	}{
		{"s", 3, 1.5}, {"ms", 3, 1.5}, {"us", 3, 1.5},
		{"1/s", 3, 6}, {"Minsn/s", 3, 6},
		{"MiB", 3, 3}, {"count", 3, 3}, {"ratio", 0.5, 0.5},
	} {
		if got := atNominalSpeed(tc.v, tc.unit, s); got != tc.want {
			t.Errorf("atNominalSpeed(%v %s) = %v, want %v", tc.v, tc.unit, got, tc.want)
		}
	}
	// keepUp runs a whole round when the yardstick is behind its share
	// of the wall time, and nothing when it is ahead.
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	time.Sleep(300 * time.Millisecond)
	y.keepUp()
	for k, xs := range y.samples {
		if len(xs) != 1 {
			t.Errorf("kernel %s ran %d times in one round", yardKernels[k].name, len(xs))
		}
	}
	y.spent = time.Hour
	y.keepUp()
	if y.rounds != 1 {
		t.Errorf("%d rounds ran, want 1: the second was over its share", y.rounds)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := func(id, parent uint64, name string, a, b int) telemetry.SpanRecord {
		return telemetry.SpanRecord{ID: id, Parent: parent, Name: name, Start: at(a), End: at(b)}
	}
	recs := []telemetry.SpanRecord{
		rec(1, 0, "op", 0, 100),
		rec(2, 1, "a", 0, 40),
		rec(3, 2, "x", 5, 15),  // children of a overlap: union 5..25
		rec(4, 2, "x", 10, 25), //
		rec(5, 1, "b", 50, 90),
		rec(6, 5, "y", 80, 95), // clipped to b's end: covers 80..90
		rec(7, 1, "b", 92, 97),
	}
	self, rootSelf, rootDur := selfTimes(recs)
	want := map[string]time.Duration{
		"a": 20 * time.Millisecond, // 40 - 20 covered
		"x": 25 * time.Millisecond, // 10 + 15, each childless
		"b": 35 * time.Millisecond, // (40 - 10) + 5
		"y": 15 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if rootDur != 100*time.Millisecond || rootSelf != 100*time.Millisecond-(40+40+5)*time.Millisecond {
		t.Errorf("root self %v of %v, want 15ms of 100ms", rootSelf, rootDur)
	}
}

// TestSmoke runs every workload briefly with tracing on: the outputs must
// check out, every catalog metric must be reported, the end-to-end ones
// nonzero, and the layer spans must account for at least 90% of op time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range Workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := Run(Config{
				Workload: name, Seed: 7, Seconds: 0.3, Trace: true,
				TraceOut: filepath.Join(dir, "trace.json"), WorkDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v (%s), %d of %d ops failed", res.Correct, res.Problem, res.Failed, res.Attempted)
			}
			if len(res.EndToEnd) != len(EndToEnd) || len(res.PerLayer) != len(PerLayer) {
				t.Fatalf("reported %d+%d metrics, catalog has %d+%d", len(res.EndToEnd), len(res.PerLayer), len(EndToEnd), len(PerLayer))
			}
			for _, m := range res.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}
			var coverage float64
			for _, m := range res.PerLayer {
				if m.Name == "trace.coverage" {
					coverage = m.Value
				}
			}
			if coverage < 0.9 {
				t.Errorf("layer spans cover %.3f of op wall time, want >= 0.9", coverage)
			}
			b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []json.RawMessage }
			if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("Chrome trace: %d events, err %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the catalog in
// step: same workloads, same metric names, units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, Workloads[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []Spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)
}
