package channel

// Fleet aggregation: the server half of telemetry.Pusher. Subscribers
// POST their registry snapshots to /fleet/report; the aggregator keeps
// the latest report per source (sequence numbers discard reordered
// arrivals) and serves two merged views — the full merged snapshot, and
// the compact per-client health table /fleet/health renders, which is
// what the fleet orchestrator's promotion gate and the operator's watch
// loop both read.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"gosplice/internal/telemetry"
)

// ClientHealth is one subscriber's health row, extracted from its last
// pushed snapshot. Counters are cumulative over the client's lifetime.
type ClientHealth struct {
	Source         string `json:"source"`
	Seq            uint64 `json:"seq"`
	Position       int64  `json:"position"`
	Applied        uint64 `json:"applied"`
	Degraded       uint64 `json:"degraded"`
	Refetches      uint64 `json:"refetches"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
	StressFailures uint64 `json:"stress_failures"`
	Recoveries     uint64 `json:"recoveries"`
	JournalReplays uint64 `json:"journal_replays"`
	TornDetected   uint64 `json:"torn_state_detected"`
	BytesOverWire  uint64 `json:"bytes_over_wire"`
}

// FleetHealth is the merged fleet view: totals across every reporting
// source plus the per-client rows, sorted by source for stable output.
type FleetHealth struct {
	Sources        int            `json:"sources"`
	Applied        uint64         `json:"applied"`
	Degraded       uint64         `json:"degraded"`
	Refetches      uint64         `json:"refetches"`
	DeltaFallbacks uint64         `json:"delta_fallbacks"`
	StressFailures uint64         `json:"stress_failures"`
	Recoveries     uint64         `json:"recoveries"`
	JournalReplays uint64         `json:"journal_replays"`
	TornDetected   uint64         `json:"torn_state_detected"`
	BytesOverWire  uint64         `json:"bytes_over_wire"`
	Clients        []ClientHealth `json:"clients"`
}

// healthFromSnapshot extracts one client's health row from a snapshot.
func healthFromSnapshot(source string, seq uint64, s telemetry.Snapshot) ClientHealth {
	return ClientHealth{
		Source:         source,
		Seq:            seq,
		Position:       s.Gauge(MetricPosition),
		Applied:        s.CounterFamily(MetricApplied),
		Degraded:       s.CounterFamily(MetricDegraded),
		Refetches:      s.CounterFamily(MetricRefetches),
		DeltaFallbacks: s.CounterFamily(MetricDeltaFallback),
		StressFailures: s.CounterFamily(MetricStressFailures),
		Recoveries:     s.CounterFamily(MetricRecoveries),
		JournalReplays: s.CounterFamily(MetricJournalReplays),
		TornDetected:   s.CounterFamily(MetricTornState),
		BytesOverWire:  s.CounterFamily(MetricBytesOverWire),
	}
}

// The aggregator's retention caps: each source's (and the fleet
// rollup's) snapshot history, each source's span set, and the rollout
// event ring.
const (
	historyCap = 64
	spanCap    = 4096
	eventCap   = 1024
)

// healthPoint is one retained snapshot sample: when it arrived, the
// report sequence it carried, and the full cumulative snapshot (the
// history endpoint diffs consecutive points into rates on demand).
type healthPoint struct {
	t    time.Time
	seq  uint64
	snap telemetry.Snapshot
}

// FleetAggregator collects pushed telemetry reports, latest per source.
// Safe for concurrent use; one aggregator can back several Server
// instances (a fleet spanning channels still has one health view).
//
// Beyond latest-per-source it is the fleet's temporal memory: a
// capped snapshot history per source plus a fleet-wide rollup (served
// as rate series on /fleet/history), a per-source store of pushed
// spans deduped by span sequence (merged with the server's own tracer
// into the cross-process Chrome trace on /fleet/trace), and a typed
// rollout event timeline (/fleet/events), each capped in memory.
// Configure the exported fields before the first Record; they are not
// synchronized.
type FleetAggregator struct {
	// TTL, when positive, expires sources whose last accepted report is
	// older than TTL at read time — a member that left without a Forget
	// no longer pins a stale row into every future gate decision.
	// Expiries count into gosplice_fleet_sources_expired_total and emit
	// a source_expired event.
	TTL time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// LocalTracer supplies the server-side spans merged into
	// /fleet/trace (nil means telemetry.DefaultTracer()).
	LocalTracer *telemetry.Tracer
	// LocalProc names the local process's lane in the merged trace
	// (default "server").
	LocalProc string

	mu        sync.Mutex
	reports   map[string]telemetry.Report
	arrival   map[string]time.Time
	history   map[string][]healthPoint
	rollup    telemetry.Snapshot // running fleet-wide cumulative deltas
	fleetHist []healthPoint
	spans     map[string]map[uint64]telemetry.SpanRecord // source -> span Seq -> record
	events    []FleetEvent
	eventSeq  uint64
	expired   uint64
}

// NewFleetAggregator returns an empty aggregator.
func NewFleetAggregator() *FleetAggregator {
	return &FleetAggregator{
		reports: map[string]telemetry.Report{},
		arrival: map[string]time.Time{},
		history: map[string][]healthPoint{},
		spans:   map[string]map[uint64]telemetry.SpanRecord{},
	}
}

func (a *FleetAggregator) nowLocked() time.Time {
	if a.Now != nil {
		return a.Now()
	}
	return time.Now()
}

// Record stores a report if it is newer than the source's last one;
// stale (reordered) reports are dropped and reported as such. Accepted
// reports also extend the source's health history, fold the interval's
// delta into the fleet rollup, and absorb the report's span batch
// (deduped by span sequence, so re-sent batches are harmless).
func (a *FleetAggregator) Record(rep telemetry.Report) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, seen := a.reports[rep.Source]
	if seen && rep.Seq <= prev.Seq {
		return false
	}
	now := a.nowLocked()
	a.absorbSpansLocked(rep.Source, rep.Spans)

	// History: keep the cumulative snapshot (diffed into rates when
	// served) and fold this interval's delta into the fleet rollup. The
	// delta's base is the source's last retained history point, not its
	// live report: Forget and TTL expiry clear the live view but keep the
	// history, so a source that reports again is diffed against what the
	// rollup already holds instead of being counted twice.
	var base telemetry.Snapshot
	if h := a.history[rep.Source]; len(h) > 0 {
		base = h[len(h)-1].snap
	}
	delta := telemetry.DiffSnapshots(base, rep.Snapshot)
	a.rollup = telemetry.MergeSnapshots(a.rollup, delta)
	a.history[rep.Source] = appendCapped(a.history[rep.Source], healthPoint{now, rep.Seq, rep.Snapshot}, historyCap)
	a.fleetHist = appendCapped(a.fleetHist, healthPoint{now, rep.Seq, a.rollup}, historyCap)

	rep.Spans = nil // retained separately; don't hold them twice
	a.reports[rep.Source] = rep
	a.arrival[rep.Source] = now
	return true
}

func appendCapped(ring []healthPoint, p healthPoint, cap int) []healthPoint {
	ring = append(ring, p)
	if len(ring) > cap {
		ring = ring[len(ring)-cap:]
	}
	return ring
}

// absorbSpansLocked merges a pushed span batch into the source's span
// set, keyed by the tracer's commit sequence: duplicates (a re-sent
// batch after a failed push) and out-of-order arrivals collapse to one
// record each. Over spanCap, the oldest sequences are evicted.
func (a *FleetAggregator) absorbSpansLocked(source string, batch []telemetry.SpanRecord) {
	if len(batch) == 0 {
		return
	}
	set := a.spans[source]
	if set == nil {
		set = map[uint64]telemetry.SpanRecord{}
		a.spans[source] = set
	}
	for _, rec := range batch {
		if _, dup := set[rec.Seq]; dup {
			continue
		}
		set[rec.Seq] = rec
	}
	if len(set) > spanCap {
		seqs := make([]uint64, 0, len(set))
		for s := range set {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs[:len(set)-spanCap] {
			delete(set, s)
		}
	}
}

// expireLocked drops sources whose last accepted report is older than
// TTL, counting and journaling each expiry. Called from every read
// path so a silent member ages out without any write traffic.
func (a *FleetAggregator) expireLocked() {
	if a.TTL <= 0 {
		return
	}
	now := a.nowLocked()
	for src, at := range a.arrival {
		if now.Sub(at) <= a.TTL {
			continue
		}
		delete(a.reports, src)
		delete(a.arrival, src)
		a.expired++
		cSourcesExpired.Inc()
		a.recordEventLocked(FleetEvent{Type: EventSourceExpired, Member: src,
			Detail: fmt.Sprintf("last report %s ago exceeds ttl %s", now.Sub(at).Round(time.Millisecond), a.TTL)})
	}
}

// Expired reports how many sources the TTL has aged out.
func (a *FleetAggregator) Expired() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expireLocked()
	return a.expired
}

// Forget drops a source from the view — what a fleet does when a
// machine leaves mid-rollout, so a departed client's last report does
// not hold the health gate forever. History, spans, and events are
// kept: the post-mortem outlives the member.
func (a *FleetAggregator) Forget(source string) {
	a.mu.Lock()
	delete(a.reports, source)
	delete(a.arrival, source)
	a.mu.Unlock()
}

// Sources returns the reporting source names, sorted.
func (a *FleetAggregator) Sources() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expireLocked()
	out := make([]string, 0, len(a.reports))
	for s := range a.reports {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Merged folds every source's latest snapshot into one — the fleet-wide
// /debug/vars equivalent.
func (a *FleetAggregator) Merged() telemetry.Snapshot {
	a.mu.Lock()
	a.expireLocked()
	snaps := make([]telemetry.Snapshot, 0, len(a.reports))
	for _, rep := range a.reports {
		snaps = append(snaps, rep.Snapshot)
	}
	a.mu.Unlock()
	return telemetry.MergeSnapshots(snaps...)
}

// Health renders the merged fleet-health view.
func (a *FleetAggregator) Health() FleetHealth {
	a.mu.Lock()
	a.expireLocked()
	rows := make([]ClientHealth, 0, len(a.reports))
	for src, rep := range a.reports {
		rows = append(rows, healthFromSnapshot(src, rep.Seq, rep.Snapshot))
	}
	a.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Source < rows[j].Source })
	h := FleetHealth{Sources: len(rows), Clients: rows}
	for _, r := range rows {
		h.Applied += r.Applied
		h.Degraded += r.Degraded
		h.Refetches += r.Refetches
		h.DeltaFallbacks += r.DeltaFallbacks
		h.StressFailures += r.StressFailures
		h.Recoveries += r.Recoveries
		h.JournalReplays += r.JournalReplays
		h.TornDetected += r.TornDetected
		h.BytesOverWire += r.BytesOverWire
	}
	return h
}

// --- Health history ---

// HealthPoint is one interval of a health-history series: the counter
// fields of the embedded ClientHealth are deltas over the interval
// (Position and Seq stay absolute), and IntervalMS is the interval's
// wall-clock extent — divide to get rates.
type HealthPoint struct {
	T          time.Time `json:"t"`
	IntervalMS int64     `json:"interval_ms"`
	ClientHealth
}

// FleetHistory is the /fleet/history response: the fleet-wide rollup
// rate series plus one series per source, oldest first, each at most
// Window points long.
type FleetHistory struct {
	Window  int                      `json:"window"`
	Fleet   []HealthPoint            `json:"fleet"`
	Sources map[string][]HealthPoint `json:"sources"`
}

// ratePoints diffs consecutive snapshot samples into interval deltas.
// The first sample diffs against the empty snapshot: a source's first
// report is itself the activity of its first interval.
func ratePoints(source string, ring []healthPoint) []HealthPoint {
	out := make([]HealthPoint, 0, len(ring))
	var base telemetry.Snapshot
	var baseT time.Time
	for i, p := range ring {
		d := telemetry.DiffSnapshots(base, p.snap)
		row := healthFromSnapshot(source, p.seq, d)
		row.Position = p.snap.Gauge(MetricPosition) // absolute, not a delta
		hp := HealthPoint{T: p.t, ClientHealth: row}
		if i > 0 {
			hp.IntervalMS = p.t.Sub(baseT).Milliseconds()
		}
		out = append(out, hp)
		base, baseT = p.snap, p.t
	}
	return out
}

// History renders the health-history view: counters→rates via
// DiffSnapshots between consecutive retained snapshots.
func (a *FleetAggregator) History() FleetHistory {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expireLocked()
	out := FleetHistory{Window: historyCap, Sources: map[string][]HealthPoint{}}
	out.Fleet = ratePoints("fleet", a.fleetHist)
	for src, ring := range a.history {
		out.Sources[src] = ratePoints(src, ring)
	}
	return out
}

// --- Rollout events ---

// Fleet event types. The orchestrator emits the rollout lifecycle;
// the aggregator itself emits source_expired.
const (
	EventRingStart     = "ring_start"
	EventPromote       = "promote"
	EventGateFail      = "gate_fail"
	EventRollback      = "rollback"
	EventJoin          = "join"
	EventLeave         = "leave"
	EventKill          = "kill"
	EventRecover       = "recover"
	EventSourceExpired = "source_expired"
)

// FleetEvent is one typed entry in the rollout timeline. TraceID, when
// set, correlates the event with the distributed trace of the sync
// that caused it, so a post-mortem can jump from "gate_fail" to the
// exact spans the orchestrator was reacting to.
type FleetEvent struct {
	Seq     uint64    `json:"seq"`
	T       time.Time `json:"t"`
	Type    string    `json:"type"`
	Ring    int       `json:"ring,omitempty"`
	Member  string    `json:"member,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// RecordEvent stamps (sequence, time) onto ev and appends it to the
// capped in-memory ring.
func (a *FleetAggregator) RecordEvent(ev FleetEvent) FleetEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recordEventLocked(ev)
}

func (a *FleetAggregator) recordEventLocked(ev FleetEvent) FleetEvent {
	a.eventSeq++
	ev.Seq = a.eventSeq
	if ev.T.IsZero() {
		ev.T = a.nowLocked()
	}
	a.events = append(a.events, ev)
	if len(a.events) > eventCap {
		a.events = a.events[len(a.events)-eventCap:]
	}
	return ev
}

// Events returns the retained rollout timeline, oldest first.
func (a *FleetAggregator) Events() []FleetEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expireLocked()
	return append([]FleetEvent(nil), a.events...)
}

// --- Merged cross-process trace ---

// SpanRecords returns every retained span — pushed source spans (Proc
// = source name) plus the local tracer's (Proc = LocalProc, default
// "server") — ordered by start time.
func (a *FleetAggregator) SpanRecords() []telemetry.SpanRecord {
	a.mu.Lock()
	var out []telemetry.SpanRecord
	for src, set := range a.spans {
		for _, rec := range set {
			rec.Proc = src
			out = append(out, rec)
		}
	}
	local, proc := a.LocalTracer, a.LocalProc
	a.mu.Unlock()
	if local == nil {
		local = telemetry.DefaultTracer()
	}
	if proc == "" {
		proc = "server"
	}
	for _, rec := range local.Snapshot() {
		rec.Proc = proc
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteMergedTrace renders the fleet's spans as one Chrome trace: each
// source is a process lane, and an update's journey — publish → fetch
// → delta apply → splice → health report — reads as one trace id
// crossing lanes.
func (a *FleetAggregator) WriteMergedTrace(w io.Writer) error {
	return telemetry.WriteChromeTraceRecords(w, a.SpanRecords())
}

// serveFleet handles the /fleet/* routes on a Server whose Fleet field
// is set. Like /metrics, fleet traffic is control plane: it is never
// counted as channel traffic (a health watcher must not move the
// counters it reads) and fault injection wraps the distribution routes,
// not these.
func (a *FleetAggregator) serveFleet(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/fleet/report":
		if r.Method != http.MethodPost {
			http.Error(w, "POST a telemetry report", http.StatusMethodNotAllowed)
			return
		}
		rep, err := telemetry.ReadReport(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !a.Record(rep) {
			// Stale sequence: acknowledged but not applied, so a delayed
			// pusher does not error-loop.
			w.WriteHeader(http.StatusAccepted)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case "/fleet/health":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Health())
	case "/fleet/vars":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Merged())
	case "/fleet/history":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.History())
	case "/fleet/events":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Events []FleetEvent `json:"events"`
		}{a.Events()})
	case "/fleet/trace":
		w.Header().Set("Content-Type", "application/json")
		a.WriteMergedTrace(w)
	default:
		http.Error(w, fmt.Sprintf("no fleet route %s", r.URL.Path), http.StatusNotFound)
	}
}
