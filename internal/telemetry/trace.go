package telemetry

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// The span tracer: hierarchical spans with start/end times and string
// attributes, recorded into a bounded in-memory ring when they end, and
// exportable as JSONL (one span per line, for ad-hoc analysis) or as
// Chrome trace_event JSON (load chrome://tracing or ui.perfetto.dev on
// the -trace-out file to see the eval pipeline's per-patch stages laid
// out on parallel tracks).
//
// The tracer is deliberately lightweight: starting a span is a mutex-
// free pointer allocation plus one atomic id; ending it takes the ring
// lock once. Spans record wall-clock time — like StageTimings before
// them they are measurements, not results, and never feed the
// deterministic tables.

// Attr is one span attribute.
type Attr struct {
	Key, Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is a completed span as stored in the ring. The JSON tags
// are the wire shape used when Pusher reports carry span batches to a
// fleet aggregator.
type SpanRecord struct {
	ID      uint64    `json:"id"`
	Parent  uint64    `json:"parent,omitempty"` // 0 for root spans
	Root    uint64    `json:"root"`             // top-level ancestor (its own ID for roots); the Chrome trace lane
	TraceID string    `json:"trace_id,omitempty"`
	Seq     uint64    `json:"seq,omitempty"` // per-tracer commit sequence; the push-batch cursor
	Proc    string    `json:"proc,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock extent.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// Attr returns the value of the named attribute ("" when absent).
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Span is a live span. End it exactly once; Child spans may outlive
// their parent's End. Spans are safe for use from the goroutine that
// created them; attribute mutation is mutex-guarded so an OnEnd hook
// reading a record never races a late SetAttr.
type Span struct {
	t       *Tracer
	id      uint64
	parent  uint64
	root    uint64
	traceID string
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
	rec   SpanRecord // valid after End
}

// Tracer records spans into a fixed-capacity ring (oldest evicted
// first). The ring grows with the spans recorded until it holds
// capacity of them, so a tracer costs memory for what it recorded, not
// for what it could hold. The zero value is not usable; construct with
// NewTracer.
type Tracer struct {
	mu       sync.Mutex
	capacity int
	ring     []SpanRecord
	next     int // ring write cursor
	full     bool
	seq      uint64 // commits so far; stamped on each record
	dropped  uint64 // commits that evicted an unread record
	dropC    *Counter
	onEnd    func(SpanRecord)
}

// DefaultCapacity bounds the default tracer ring: enough for a full
// 64-CVE evaluation (64 patches x ~7 stage spans plus per-release
// build/boot spans) with generous headroom.
const DefaultCapacity = 16384

// NewTracer creates a tracer whose ring holds capacity completed spans
// (<= 0 means DefaultCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

var defaultTracer = NewTracer(0)

func init() {
	c := Default().Counter("gosplice_trace_spans_dropped_total")
	Default().Help("gosplice_trace_spans_dropped_total",
		"Completed spans evicted from the default tracer's ring before export.")
	defaultTracer.SetDropCounter(c)
}

// DefaultTracer is the process-wide tracer; the cmd tools' -trace-out
// flag exports it on exit.
func DefaultTracer() *Tracer { return defaultTracer }

var nopTracer = &Tracer{}

// NopTracer returns a shared tracer that discards every span (its
// capacity is zero, so commit is an early return). It is the
// tracing-off arm of the telemetry-overhead benchmark.
func NopTracer() *Tracer { return nopTracer }

// --- Trace ids and the traceparent wire format ---

var traceIDRand = struct {
	sync.Mutex
	*rand.Rand
}{Rand: func() *rand.Rand {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		return rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
}()}

// newTraceID returns a 32-hex-char (16-byte) trace id.
func newTraceID() string {
	traceIDRand.Lock()
	hi, lo := traceIDRand.Uint64(), traceIDRand.Uint64()
	traceIDRand.Unlock()
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// TraceparentHeader is the HTTP header the channel client stamps on
// every request so server-side handler spans join the client's trace.
const TraceparentHeader = "Traceparent"

// FormatTraceparent renders a W3C-style traceparent value:
// version "00", 32 hex chars of trace id, 16 hex chars of parent span
// id, flags "01" (sampled). Empty when the span carries no trace id.
func FormatTraceparent(traceID string, spanID uint64) string {
	if len(traceID) != 32 || spanID == 0 {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", traceID, spanID)
}

// Traceparent renders the span's own traceparent value — what a child
// process should adopt via StartRemote. Empty for nil spans.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.traceID, s.id)
}

// ParseTraceparent decodes a traceparent value. ok is false for
// anything malformed — missing fields, wrong lengths, non-hex digits,
// or a zero span id — so a garbage header degrades to a fresh root
// trace rather than an error.
func ParseTraceparent(v string) (traceID string, spanID uint64, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", 0, false
	}
	if !isHex(parts[0]) || !isHex(parts[1]) || !isHex(parts[2]) {
		return "", 0, false
	}
	var id uint64
	if _, err := fmt.Sscanf(parts[2], "%016x", &id); err != nil || id == 0 {
		return "", 0, false
	}
	if strings.Count(parts[1], "0") == 32 { // all-zero trace id is invalid
		return "", 0, false
	}
	return parts[1], id, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// --- Context propagation ---

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s for SpanFromContext.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil. All *Span
// methods are nil-safe, so callers can chain without guards.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// TraceparentFromContext renders the traceparent of the span carried
// by ctx ("" when none) — the one call sites need to stamp outbound
// HTTP requests.
func TraceparentFromContext(ctx context.Context) string {
	return SpanFromContext(ctx).Traceparent()
}

// SetOnEnd installs a hook invoked (outside the ring lock) with each
// span record as it ends — the span-event feed behind ksplice-eval's
// -v stage-progress lines. Pass nil to remove.
func (t *Tracer) SetOnEnd(f func(SpanRecord)) {
	t.mu.Lock()
	t.onEnd = f
	t.mu.Unlock()
}

// nextID draws a random nonzero span id. Ids are random, not
// sequential: every process's counter would otherwise start at 1, so a
// merged fleet trace could not tell one process's span 1 from
// another's, and cross-process parent links (which name the parent by
// id alone) would resolve ambiguously.
func (t *Tracer) nextID() uint64 {
	for {
		traceIDRand.Lock()
		id := traceIDRand.Uint64()
		traceIDRand.Unlock()
		if id != 0 {
			return id
		}
	}
}

// Start opens a root span with a fresh trace id.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	id := t.nextID()
	return &Span{t: t, id: id, root: id, traceID: newTraceID(), name: name, start: time.Now(), attrs: attrs}
}

// StartRemote opens a span that continues a trace begun in another
// process: it adopts the caller-supplied trace id and hangs off the
// remote parent span id, but anchors a fresh local lane (root = own
// id) so the local Chrome export still renders it as a track.
func (t *Tracer) StartRemote(name, traceID string, parent uint64, attrs ...Attr) *Span {
	id := t.nextID()
	return &Span{t: t, id: id, parent: parent, root: id, traceID: traceID, name: name, start: time.Now(), attrs: attrs}
}

// Child opens a span nested under s. A nil receiver yields nil, so
// instrumented code can chain from SpanFromContext without guards.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, id: s.t.nextID(), parent: s.id, root: s.root, traceID: s.traceID, name: name, start: time.Now(), attrs: attrs}
}

// ID returns the span id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the trace id the span belongs to ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SetAttr adds or replaces an attribute. After End (or on a nil span)
// it is a no-op.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span at time.Now and commits it to the ring. Multiple
// Ends are idempotent; a nil span is a no-op.
func (s *Span) End() { s.endAt(time.Now()) }

func (s *Span) endAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec = SpanRecord{
		ID: s.id, Parent: s.parent, Root: s.root, TraceID: s.traceID, Name: s.name,
		Start: s.start, End: end,
		Attrs: append([]Attr(nil), s.attrs...),
	}
	rec := s.rec
	s.mu.Unlock()
	s.t.commit(rec)
}

// Record commits a pre-measured interval as a child of parent (nil for
// a root span): a stage the caller timed itself, or one whose duration
// a lower layer reports, like run-pre matching inside apply.
func (t *Tracer) Record(parent *Span, name string, start, end time.Time, attrs ...Attr) SpanRecord {
	rec := SpanRecord{
		ID: t.nextID(), Name: name, Start: start, End: end,
		Attrs: append([]Attr(nil), attrs...),
	}
	if parent != nil {
		rec.Parent = parent.id
		rec.Root = parent.root
		rec.TraceID = parent.traceID
	} else {
		rec.Root = rec.ID
	}
	t.commit(rec)
	return rec
}

// Duration returns the span's extent (zero until End or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.rec.Duration()
}

func (t *Tracer) commit(rec SpanRecord) {
	t.mu.Lock()
	if t.capacity == 0 {
		t.mu.Unlock()
		return
	}
	t.seq++
	rec.Seq = t.seq
	var dropC *Counter
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.full = true
		t.dropped++
		dropC = t.dropC
	}
	t.next = (t.next + 1) % t.capacity
	hook := t.onEnd
	t.mu.Unlock()
	if dropC != nil {
		dropC.Inc()
	}
	if hook != nil {
		hook(rec)
	}
}

// Dropped reports how many committed spans were evicted from the ring
// before being snapshotted — the tracer's silent-overflow tally.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SetDropCounter mirrors ring evictions into a registry counter so the
// overflow shows up on /metrics. Pass nil to detach.
func (t *Tracer) SetDropCounter(c *Counter) {
	t.mu.Lock()
	t.dropC = c
	t.mu.Unlock()
}

// Snapshot returns the completed spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]SpanRecord(nil), t.ring...)
	}
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// SnapshotSince returns the completed spans whose commit sequence is
// greater than since, oldest first — the Pusher's incremental batch
// cursor. A span evicted from the ring before being read is gone (and
// counted by Dropped).
func (t *Tracer) SnapshotSince(since uint64) []SpanRecord {
	out := t.Snapshot()
	i := 0
	for i < len(out) && out[i].Seq <= since {
		i++
	}
	return out[i:]
}

// Reset drops every recorded span (live spans still End into the ring
// afterwards).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.full = false
	t.mu.Unlock()
}

// --- Export ---

// chromeTraceEvent is one trace_event in the Chrome trace JSON schema:
// a complete ("ph":"X") event with microsecond timestamp and duration.
type chromeTraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTraceFile struct {
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the completed spans in Chrome trace_event
// format. Each root span's tree shares a tid, so concurrent patches
// render as parallel tracks; timestamps are microseconds relative to
// the earliest span.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceRecords(w, t.Snapshot())
}

// WriteChromeTraceRecords renders an arbitrary span set — possibly
// gathered from several processes — in Chrome trace_event format. Each
// distinct Proc becomes a pid (with a process_name metadata event);
// records with an empty Proc share pid 1 and, when they are the only
// kind present, the output is identical to the single-process export.
// Cross-process parent/child links ride in the args (trace_id,
// span_id, parent_id) so tooling — and CheckMergedTrace — can stitch
// the causal chain back together.
func WriteChromeTraceRecords(w io.Writer, recs []SpanRecord) error {
	var epoch time.Time
	procs := map[string]int{}
	var names []string
	for _, r := range recs {
		if epoch.IsZero() || r.Start.Before(epoch) {
			epoch = r.Start
		}
		if _, ok := procs[r.Proc]; !ok {
			procs[r.Proc] = 0
			names = append(names, r.Proc)
		}
	}
	sort.Strings(names) // "" sorts first and keeps pid 1, matching the local export
	for i, n := range names {
		procs[n] = i + 1
	}
	out := chromeTraceFile{TraceEvents: []chromeTraceEvent{}, DisplayTimeUnit: "ms"}
	for _, n := range names {
		if n == "" {
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeTraceEvent{
			Name: "process_name", Cat: "gosplice", Ph: "M", Pid: procs[n],
			Args: map[string]string{"name": n},
		})
	}
	for _, r := range recs {
		ev := chromeTraceEvent{
			Name: r.Name,
			Cat:  "gosplice",
			Ph:   "X",
			Ts:   float64(r.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(r.Duration().Nanoseconds()) / 1e3,
			Pid:  procs[r.Proc],
			Tid:  r.Root,
		}
		n := len(r.Attrs)
		if r.TraceID != "" {
			n += 3
		}
		if n > 0 {
			ev.Args = make(map[string]string, n)
			for _, a := range r.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		if r.TraceID != "" {
			ev.Args["trace_id"] = r.TraceID
			ev.Args["span_id"] = fmt.Sprintf("%016x", r.ID)
			if r.Parent != 0 {
				ev.Args["parent_id"] = fmt.Sprintf("%016x", r.Parent)
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	// Stable export order: metadata first, then by start time, then id.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M"
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Tid < b.Tid
	})
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// MergedTraceCheck is CheckMergedTrace's report on a merged trace.
type MergedTraceCheck struct {
	Spans       int      // "X" events parsed
	Procs       []string // distinct process names (pid lanes), sorted
	CrossTraces []string // trace ids spanning >= 2 pids
	Linked      bool     // some cross-process child's parent_id resolves to a span in another pid
}

// CheckMergedTrace parses a Chrome trace produced by
// WriteChromeTraceRecords and verifies the cross-process invariant the
// fleet smoke relies on: at least one trace id appears in two or more
// pid lanes, and at least one parent/child link crosses a process
// boundary. It returns a descriptive error when the invariant fails.
func CheckMergedTrace(b []byte) (MergedTraceCheck, error) {
	var in struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	var chk MergedTraceCheck
	if err := json.Unmarshal(b, &in); err != nil {
		return chk, fmt.Errorf("telemetry: merged trace not JSON: %w", err)
	}
	procName := map[int]string{}
	type spanKey struct {
		trace string
		id    string
	}
	spanPid := map[spanKey]int{}
	type link struct {
		pid           int
		trace, parent string
	}
	var links []link
	tracePids := map[string]map[int]bool{}
	for _, ev := range in.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procName[ev.Pid] = ev.Args["name"]
			}
		case "X":
			chk.Spans++
			tid := ev.Args["trace_id"]
			if tid == "" {
				continue
			}
			if tracePids[tid] == nil {
				tracePids[tid] = map[int]bool{}
			}
			tracePids[tid][ev.Pid] = true
			if id := ev.Args["span_id"]; id != "" {
				spanPid[spanKey{tid, id}] = ev.Pid
			}
			if p := ev.Args["parent_id"]; p != "" {
				links = append(links, link{ev.Pid, tid, p})
			}
		}
	}
	seen := map[int]bool{}
	for _, ev := range in.TraceEvents {
		if ev.Ph == "X" && !seen[ev.Pid] {
			seen[ev.Pid] = true
			name := procName[ev.Pid]
			if name == "" {
				name = fmt.Sprintf("pid%d", ev.Pid)
			}
			chk.Procs = append(chk.Procs, name)
		}
	}
	sort.Strings(chk.Procs)
	for tid, pids := range tracePids {
		if len(pids) >= 2 {
			chk.CrossTraces = append(chk.CrossTraces, tid)
		}
	}
	sort.Strings(chk.CrossTraces)
	for _, l := range links {
		if pid, ok := spanPid[spanKey{l.trace, l.parent}]; ok && pid != l.pid {
			chk.Linked = true
			break
		}
	}
	if len(chk.CrossTraces) == 0 {
		return chk, fmt.Errorf("telemetry: no trace id spans two processes (procs %v, %d spans)", chk.Procs, chk.Spans)
	}
	if !chk.Linked {
		return chk, fmt.Errorf("telemetry: cross-process trace present but no parent/child link crosses a process boundary")
	}
	return chk, nil
}
