package telemetry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestMergeSnapshotsConservation: merging per-instance registries loses
// nothing — every counter family's merged total is the sum of the
// instances' totals, label collisions sum rather than clobber, and
// gauges add.
func TestMergeSnapshotsConservation(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()

	// Same family, same label set: a collision that must sum.
	a.Counter("fleet_ops_total", L("kind", "fetch")).Add(7)
	b.Counter("fleet_ops_total", L("kind", "fetch")).Add(5)
	// Same family, different children.
	a.Counter("fleet_ops_total", L("kind", "apply")).Add(3)
	b.Counter("fleet_ops_total", L("kind", "undo")).Add(2)
	// A counter only one instance has.
	a.Counter("fleet_only_a_total").Add(11)
	a.Gauge("fleet_position").Set(4)
	b.Gauge("fleet_position").Set(9)

	sa, sb := a.Snapshot(), b.Snapshot()
	m := MergeSnapshots(sa, sb)

	if got, want := m.CounterFamily("fleet_ops_total"), sa.CounterFamily("fleet_ops_total")+sb.CounterFamily("fleet_ops_total"); got != want {
		t.Errorf("merged family = %d, want conserved sum %d", got, want)
	}
	if got := m.Counter(`fleet_ops_total{kind="fetch"}`); got != 12 {
		t.Errorf("colliding child = %d, want 7+5", got)
	}
	if got := m.Counter(`fleet_ops_total{kind="apply"}`); got != 3 {
		t.Errorf("a-only child = %d, want 3", got)
	}
	if got := m.Counter(`fleet_ops_total{kind="undo"}`); got != 2 {
		t.Errorf("b-only child = %d, want 2", got)
	}
	if got := m.Counter("fleet_only_a_total"); got != 11 {
		t.Errorf("singleton counter = %d, want 11", got)
	}
	if got := m.Gauge("fleet_position"); got != 13 {
		t.Errorf("merged gauge = %d, want 4+9", got)
	}

	// Merging is associative over totals: (a+b) == (b+a).
	m2 := MergeSnapshots(sb, sa)
	if m.CounterFamily("fleet_ops_total") != m2.CounterFamily("fleet_ops_total") {
		t.Error("merge order changed a family total")
	}
}

// TestMergeSnapshotsHistograms: matching bounds sum slot-wise and
// conserve observation counts; mismatched bounds keep the first shape
// instead of fabricating slots.
func TestMergeSnapshotsHistograms(t *testing.T) {
	bounds := []float64{1, 10, 100}
	a, b := NewRegistry(), NewRegistry()
	ha := a.Histogram("fleet_latency", bounds)
	hb := b.Histogram("fleet_latency", bounds)
	for _, v := range []float64{0.5, 5, 50, 500} {
		ha.Observe(v)
	}
	hb.Observe(5)

	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	h := m.Histograms["fleet_latency"]
	if h.Count != 5 {
		t.Errorf("merged count = %d, want 5", h.Count)
	}
	var slots uint64
	for _, c := range h.Counts {
		slots += c
	}
	if slots != 5 {
		t.Errorf("slot-wise total = %d, want every observation in a slot", slots)
	}

	c := NewRegistry()
	c.Histogram("fleet_latency", []float64{2, 4}).Observe(3)
	m2 := MergeSnapshots(a.Snapshot(), c.Snapshot())
	h2 := m2.Histograms["fleet_latency"]
	if len(h2.Bounds) != len(bounds) || h2.Count != 4 {
		t.Errorf("mismatched bounds merged anyway: %+v", h2)
	}
}

// TestPusherRoundtrip: Push wraps the gathered snapshot in a
// seq-numbered report that ReadReport decodes intact, and sequence
// numbers strictly increase across pushes.
func TestPusherRoundtrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pushed_total").Add(42)
	reg.Gauge("pos").Set(7)

	var mu sync.Mutex
	var got []Report
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep, err := ReadReport(r.Body)
		if err != nil {
			t.Errorf("ReadReport: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, rep)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	p := &Pusher{URL: srv.URL, Source: "m-01", Gather: reg.Snapshot}
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg.Counter("pushed_total").Add(8)
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("server saw %d reports, want 2", len(got))
	}
	if got[0].Source != "m-01" || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("report envelopes: %+v", got)
	}
	if got[0].Snapshot.Counter("pushed_total") != 42 || got[1].Snapshot.Counter("pushed_total") != 50 {
		t.Errorf("pushed counters: %d then %d, want 42 then 50",
			got[0].Snapshot.Counter("pushed_total"), got[1].Snapshot.Counter("pushed_total"))
	}
	if got[0].Snapshot.Gauge("pos") != 7 {
		t.Errorf("pushed gauge = %d, want 7", got[0].Snapshot.Gauge("pos"))
	}
}

// TestReadReportRejects: anonymous and oversized reports are refused.
func TestReadReportRejects(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"seq":1,"snapshot":{}}`)); err == nil {
		t.Error("report with no source accepted")
	}
	if _, err := ReadReport(strings.NewReader(`{garbage`)); err == nil {
		t.Error("malformed report accepted")
	}
	huge := `{"source":"x","seq":1,"snapshot":{"counters":{"a":` + strings.Repeat("1", MaxReportBytes) + `}}}`
	if _, err := ReadReport(strings.NewReader(huge)); err == nil {
		t.Error("oversized report accepted")
	}
}
