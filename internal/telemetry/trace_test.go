package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanHierarchy: roots, children, attributes, and idempotent End.
func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("patch", A("cve", "CVE-2008-0600"))
	child := root.Child("create")
	child.SetAttr("units", "3")
	child.End()
	child.End() // idempotent: must not double-commit
	root.SetAttr("verdict", "pass")
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	c, r := recs[0], recs[1]
	if c.Name != "create" || r.Name != "patch" {
		t.Fatalf("order/names wrong: %q then %q", c.Name, r.Name)
	}
	if c.Parent != r.ID || c.Root != r.ID || r.Parent != 0 || r.Root != r.ID {
		t.Errorf("hierarchy wrong: child{parent=%d root=%d} root{id=%d parent=%d root=%d}",
			c.Parent, c.Root, r.ID, r.Parent, r.Root)
	}
	if c.Attr("units") != "3" || r.Attr("cve") != "CVE-2008-0600" || r.Attr("verdict") != "pass" {
		t.Errorf("attrs lost: %+v %+v", c.Attrs, r.Attrs)
	}
	if r.Duration() < 0 || c.End.Before(c.Start) {
		t.Errorf("negative durations")
	}
}

// TestRecordPreMeasured commits externally measured intervals (the
// run-pre stage, whose duration is reported from inside apply).
func TestRecordPreMeasured(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("patch")
	start := time.Now().Add(-50 * time.Millisecond)
	rec := tr.Record(root, "run_pre", start, start.Add(30*time.Millisecond), A("match", "ok"))
	root.End()

	if rec.Parent != root.id || rec.Root != root.id {
		t.Errorf("recorded span not parented: %+v", rec)
	}
	if rec.Duration() != 30*time.Millisecond {
		t.Errorf("duration = %v, want 30ms", rec.Duration())
	}
	orphan := tr.Record(nil, "solo", start, start.Add(time.Millisecond))
	if orphan.Parent != 0 || orphan.Root != orphan.ID {
		t.Errorf("nil-parent record should be a root: %+v", orphan)
	}
}

// TestRingWrap: the ring keeps the newest capacity spans, oldest first,
// and counts every evicted span as dropped.
func TestRingWrap(t *testing.T) {
	tr := NewTracer(4)
	drops := NewRegistry().Counter("drops")
	tr.SetDropCounter(drops)
	for i := 0; i < 10; i++ {
		s := tr.Start("s")
		s.SetAttr("i", string(rune('0'+i)))
		s.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	for j, want := range []string{"6", "7", "8", "9"} {
		if got := recs[j].Attr("i"); got != want {
			t.Errorf("slot %d = %q, want %q", j, got, want)
		}
	}
	// 10 commits into a 4-slot ring: exactly 6 evictions, mirrored into
	// the wired counter (the /metrics spans_dropped surface).
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6", got)
	}
	if got := drops.Value(); got != 6 {
		t.Errorf("drop counter = %d, want 6", got)
	}
	tr.Reset()
	if len(tr.Snapshot()) != 0 {
		t.Errorf("reset left spans")
	}
	tr.Start("after").End()
	if len(tr.Snapshot()) != 1 {
		t.Errorf("tracer dead after reset")
	}
}

// TestTracerGrowsWithSpans: a tracer costs memory for the spans it
// recorded, not for the ones it could hold. A 65,536-span tracer
// allocates under 4 KiB before its first span; a ring preallocated to
// capacity would take about 10 MB.
func TestTracerGrowsWithSpans(t *testing.T) {
	const n = 8
	tracers := make([]*Tracer, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range tracers {
		tracers[i] = NewTracer(1 << 16)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4<<10 {
		t.Errorf("NewTracer(1<<16) allocated %d B before its first span, want under 4 KiB", per)
	}
	tr := tracers[0]
	for i := 0; i < 3; i++ {
		tr.Start("s").End()
	}
	if recs := tr.Snapshot(); len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Errorf("snapshot after 3 spans = %+v, want seqs 1..3", recs)
	}
	runtime.KeepAlive(tracers)
}

// TestOnEndHook: every ended span reaches the hook (the -v stage line
// feed), including Record commits.
func TestOnEndHook(t *testing.T) {
	tr := NewTracer(8)
	var mu sync.Mutex
	var names []string
	tr.SetOnEnd(func(r SpanRecord) {
		mu.Lock()
		names = append(names, r.Name)
		mu.Unlock()
	})
	s := tr.Start("a")
	s.Child("b").End()
	tr.Record(s, "c", time.Now(), time.Now())
	s.End()
	tr.SetOnEnd(nil)
	tr.Start("unhooked").End()

	mu.Lock()
	defer mu.Unlock()
	if strings.Join(names, ",") != "b,c,a" {
		t.Errorf("hook saw %v, want [b c a]", names)
	}
}

// TestTracerConcurrent hammers the tracer from many goroutines under
// -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Start("root")
				c := s.Child("child")
				c.SetAttr("k", "v")
				c.End()
				s.End()
				if i%50 == 0 {
					_ = tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 256 {
		t.Fatalf("ring has %d spans, want full 256", got)
	}
}

// TestChromeTraceRoundTrip: the trace_event export parses back, spans
// carry the complete-event shape, and trees share a tid lane.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	p1 := tr.Start("patch", A("cve", "A"))
	p1.Child("create").End()
	p1.Child("apply").End()
	p1.End()
	p2 := tr.Start("patch", A("cve", "B"))
	p2.Child("create").End()
	p2.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	if len(out.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(out.TraceEvents))
	}
	lanes := map[uint64]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Cat != "gosplice" {
			t.Errorf("event shape wrong: %+v", ev)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("negative ts/dur: %+v", ev)
		}
		lanes[ev.Tid]++
	}
	if len(lanes) != 2 {
		t.Errorf("want 2 tid lanes (one per patch tree), got %v", lanes)
	}
	// ts ordering is non-decreasing.
	for i := 1; i < len(out.TraceEvents); i++ {
		if out.TraceEvents[i].Ts < out.TraceEvents[i-1].Ts {
			t.Errorf("events unsorted at %d", i)
		}
	}
}
