package telemetry

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTelemetryConcurrentHammer drives counters, gauges, and histograms
// from many goroutines at once — including child creation races and
// concurrent snapshots — and checks the totals are exact. This is the
// race-detector workout `make check` runs for the registry.
func TestTelemetryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 16
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Child lookup on every round exercises the creation race.
				r.Counter("gosplice_test_ops_total", L("worker", "shared")).Inc()
				r.Counter("gosplice_test_bytes_total").Add(3)
				g := r.Gauge("gosplice_test_depth")
				g.Add(1)
				g.Add(-1)
				r.Histogram("gosplice_test_latency_seconds", nil).Observe(0.25)
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent scrapes must be safe
				}
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counter(`gosplice_test_ops_total{worker="shared"}`); got != workers*rounds {
		t.Errorf("ops counter = %d, want %d", got, workers*rounds)
	}
	if got := s.Counter("gosplice_test_bytes_total"); got != 3*workers*rounds {
		t.Errorf("bytes counter = %d, want %d", got, 3*workers*rounds)
	}
	if got := s.Gauge("gosplice_test_depth"); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	h := s.Histograms["gosplice_test_latency_seconds"]
	if h.Count != workers*rounds {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*rounds)
	}
	wantSum := 0.25 * workers * rounds
	if h.Sum < wantSum-1e-6 || h.Sum > wantSum+1e-6 {
		t.Errorf("histogram sum = %g, want %g", h.Sum, wantSum)
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Errorf("bucket counts sum to %d, count says %d", total, h.Count)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// lands in the first bucket whose bound is >= the value, and values
// above the last bound land in the overflow slot.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []uint64{2, 2, 2, 2} // {<=1}=2, {<=2}=2, {<=4}=2, {>4}=2
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if h.Sum() != 117 {
		t.Fatalf("sum = %g, want 117", h.Sum())
	}
}

// TestSnapshotDeterminism: two snapshots of a quiescent registry are
// deeply equal, and label order never changes a child's identity.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("b", "2"), L("a", "1")).Add(7)
	r.Counter("c_total", L("a", "1"), L("b", "2")).Add(5) // same child, labels reordered
	r.Gauge("g", L("x", "y")).Set(-3)
	r.Histogram("h_seconds", []float64{0.1, 1}).Observe(0.5)

	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	if got := s1.Counter(`c_total{a="1",b="2"}`); got != 12 {
		t.Fatalf("label order split the child: %+v", s1.Counters)
	}
	if len(s1.Counters) != 1 {
		t.Fatalf("want exactly one counter child, got %v", s1.Counters)
	}
}

// TestResetZeroesInPlace: metric pointers survive Reset and keep
// counting from zero.
func TestResetZeroesInPlace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_seconds", nil)
	g := r.Gauge("g")
	c.Add(9)
	g.Set(4)
	h.Observe(1)
	r.Reset()
	s := r.Snapshot()
	if s.Counter("c_total") != 0 || s.Gauge("g") != 0 || s.Histograms["h_seconds"].Count != 0 {
		t.Fatalf("reset left values behind: %+v", s)
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("counter dead after reset")
	}
	if h.Sum() != 0 {
		t.Fatalf("histogram sum survived reset: %g", h.Sum())
	}
}

// TestRegistryRollUp: a child registry's metrics are linked to its
// parent's metrics of the same id, so the parent holds the sum of its
// children where they are written — counters and histograms add, label
// children stay apart, gauges move by each Set's difference — while
// siblings never see each other. NewRegistry's parent is Default.
func TestRegistryRollUp(t *testing.T) {
	root := newRegistry(nil)
	a, b := newRegistry(root), newRegistry(root)

	a.Counter("ops_total", L("kind", "fetch")).Add(7)
	b.Counter("ops_total", L("kind", "fetch")).Add(5)
	a.Counter("ops_total", L("kind", "apply")).Add(3)
	b.Counter("ops_total", L("kind", "undo")).Inc()
	if got := root.Counter("ops_total", L("kind", "fetch")).Value(); got != 12 {
		t.Errorf("same id from two registries = %d, want 7+5", got)
	}
	rs := root.Snapshot()
	if got := rs.Counter(`ops_total{kind="apply"}`); got != 3 {
		t.Errorf("label child apply = %d, want 3", got)
	}
	if got := rs.Counter(`ops_total{kind="undo"}`); got != 1 {
		t.Errorf("label child undo = %d, want 1", got)
	}
	if got := rs.CounterFamily("ops_total"); got != 16 {
		t.Errorf("family total = %d, want 16", got)
	}

	ga, gb := a.Gauge("position"), b.Gauge("position")
	ga.Set(4)
	gb.Set(9)
	if got := root.Gauge("position").Value(); got != 13 {
		t.Errorf("gauges after Set = %d, want 4+9", got)
	}
	ga.Set(1)
	gb.Add(-2)
	if got := root.Gauge("position").Value(); got != 8 {
		t.Errorf("gauges after Set(1) and Add(-2) = %d, want 1+7", got)
	}

	bounds := []float64{1, 10, 100}
	for _, v := range []float64{0.5, 5, 50, 500} {
		a.Histogram("latency", bounds).Observe(v)
	}
	b.Histogram("latency", bounds).Observe(5)
	h := root.Snapshot().Histograms["latency"]
	if h.Count != 5 || h.Sum != 560.5 || !reflect.DeepEqual(h.Counts, []uint64{1, 2, 1, 1}) {
		t.Errorf("parent histogram = %+v, want 5 observations summing to 560.5 in slots [1 2 1 1]", h)
	}

	as := a.Snapshot()
	if got := as.Counter(`ops_total{kind="fetch"}`); got != 7 {
		t.Errorf("sibling a's counter = %d, want its own 7", got)
	}
	if _, ok := as.Counters[`ops_total{kind="undo"}`]; ok {
		t.Error("sibling a sees b's undo child")
	}
	if got, hb := as.Gauge("position"), b.Snapshot().Histograms["latency"]; got != 1 || hb.Count != 1 {
		t.Errorf("siblings mixed: a position %d (want 1), b latency count %d (want 1)", got, hb.Count)
	}

	a.Help("ops_total", "from a")
	b.Help("ops_total", "from b")
	if got := root.Snapshot().Help["ops_total"]; got != "from a" {
		t.Errorf("parent help = %q, want the first child's", got)
	}

	const id = "telemetry_rollup_test_total"
	before := Default().Counter(id).Value()
	NewRegistry().Counter(id).Add(3)
	if got := Default().Counter(id).Value() - before; got != 3 {
		t.Errorf("NewRegistry's counter moved Default by %d, want 3", got)
	}
}

// TestCounterFamily sums across label children.
func TestCounterFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", L("route", "a")).Add(2)
	r.Counter("reqs_total", L("route", "b")).Add(3)
	r.Counter("other_total").Add(100)
	if got := r.Snapshot().CounterFamily("reqs_total"); got != 5 {
		t.Fatalf("family sum = %d, want 5", got)
	}
}

// TestObserveDuration converts to seconds.
func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", []float64{0.1, 1})
	h.ObserveDuration(500 * time.Millisecond)
	s := r.Snapshot().Histograms["h_seconds"]
	if s.Counts[1] != 1 {
		t.Fatalf("500ms not in the (0.1, 1] bucket: %+v", s)
	}
}
