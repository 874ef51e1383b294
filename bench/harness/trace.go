package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gosplice/internal/telemetry"
)

// layer is one timed call into a layer of the system. Its span is nil
// when the run is untraced (every telemetry.Span method is nil-safe), so
// an untraced run pays two clock reads per call and nothing more.
type layer struct {
	sp *telemetry.Span
	t0 time.Time
}

// child opens a layer call nested under l.
func (l layer) child(name string) layer {
	return layer{sp: l.sp.Child(name), t0: time.Now()}
}

// end closes the call and returns its wall time.
func (l layer) end() time.Duration {
	d := time.Since(l.t0)
	l.sp.End()
	return d
}

// spanCap bounds one op's spans; the recorder drains the tracer after
// every op, so the ring only ever holds a single op (a subscribe is the
// largest, at a few hundred spans).
const spanCap = 1 << 14

// traceOps is how many measured ops the Chrome trace keeps: enough to
// inspect every kind of op, small enough that a run of thousands of
// sub-millisecond ops does not write a trace of tens of megabytes. The
// layer totals cover every op regardless.
const traceOps = 1000

// recorder owns the traced run's tracer and folds each op's spans into
// per-layer totals as the op ends.
type recorder struct {
	tr   *telemetry.Tracer // nil when untraced
	recs []telemetry.SpanRecord
	ops  int // measured ops whose spans recs holds

	self, dur map[string]time.Duration // by span name, measured ops only
	covered   time.Duration            // op wall time covered by layer spans
	wall      time.Duration            // op wall time
}

func newRecorder(traced bool) *recorder {
	r := &recorder{self: map[string]time.Duration{}, dur: map[string]time.Duration{}}
	if traced {
		r.tr = telemetry.NewTracer(spanCap)
	}
	return r
}

// root opens an op's root span.
func (r *recorder) root(kind string) layer {
	var sp *telemetry.Span
	if r.tr != nil {
		sp = r.tr.Start("op", telemetry.A("kind", kind))
	}
	return layer{sp: sp, t0: time.Now()}
}

// record adds a span whose interval a lower layer reported (run-pre
// matching and the stop_machine pause inside Manager.Apply).
func (r *recorder) record(parent layer, name string, start, end time.Time) {
	if r.tr != nil {
		r.tr.Record(parent.sp, name, start, end)
	}
}

// endOp drains the op's spans. Measured ops add to the layer totals;
// the first traceOps of them are kept for the Chrome trace.
func (r *recorder) endOp(measured bool) error {
	if r.tr == nil {
		return nil
	}
	recs := r.tr.Snapshot()
	r.tr.Reset()
	if n := r.tr.Dropped(); n > 0 {
		return fmt.Errorf("tracer dropped %d spans: one op outgrew its %d-span ring", n, spanCap)
	}
	if !measured {
		return nil
	}
	self, rootSelf, rootDur := selfTimes(recs)
	for name, d := range self {
		r.self[name] += d
	}
	for _, rec := range recs {
		if rec.Parent != 0 {
			r.dur[rec.Name] += rec.Duration()
		}
	}
	r.wall += rootDur
	r.covered += rootDur - rootSelf
	if r.ops < traceOps {
		r.recs = append(r.recs, recs...)
		r.ops++
	}
	return nil
}

// coverage is the share of op wall time the layer spans account for.
func (r *recorder) coverage() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.covered) / float64(r.wall)
}

// writeTrace exports the first traceOps measured ops' spans as a Chrome
// trace.
func (r *recorder) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceRecords(f, r.recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes computes each span's self time — its duration minus the
// part of its interval its children cover — summed by span name over
// the non-root spans of one op. It also returns the root span's own self
// time (the op time no layer accounts for) and the root's duration.
func selfTimes(recs []telemetry.SpanRecord) (self map[string]time.Duration, rootSelf, rootDur time.Duration) {
	kids := map[uint64][]telemetry.SpanRecord{}
	for _, rec := range recs {
		if rec.Parent != 0 {
			kids[rec.Parent] = append(kids[rec.Parent], rec)
		}
	}
	self = map[string]time.Duration{}
	for _, rec := range recs {
		s := rec.Duration() - covered(rec, kids[rec.ID])
		if rec.Parent == 0 {
			rootSelf += s
			rootDur += rec.Duration()
			continue
		}
		self[rec.Name] += s
	}
	return self, rootSelf, rootDur
}

// covered measures the union of the children's intervals, clipped to the
// parent's.
func covered(parent telemetry.SpanRecord, kids []telemetry.SpanRecord) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
