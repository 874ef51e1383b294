package channel

// Fleet aggregation: the server half of telemetry.Pusher. Subscribers
// POST their registry snapshots to /fleet/report; the aggregator keeps
// the latest report per source (sequence numbers discard reordered
// arrivals) and serves the compact per-client health table
// /fleet/health renders — what the fleet orchestrator's promotion gate
// and the operator's watch loop both read — plus the pushed spans,
// merged with the server's own, as one Chrome trace on /fleet/trace.

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

// The aggregator's retention caps: each source's span set and the
// rollout event ring.
const (
	spanCap  = 4096
	eventCap = 1024
)

// FleetAggregator collects pushed telemetry reports, latest per source.
// Safe for concurrent use; one aggregator can back several Server
// instances (a fleet spanning channels still has one health view).
//
// Beside latest-per-source it keeps a per-source store of pushed spans
// deduped by span sequence (merged with the server's own tracer into
// the cross-process Chrome trace on /fleet/trace) and the in-process
// rollout event timeline the orchestrator records, each capped in
// memory. Configure the exported fields before the first Record; they
// are not synchronized.
type FleetAggregator struct {
	// LocalTracer supplies the server-side spans merged into
	// /fleet/trace (nil means telemetry.DefaultTracer()).
	LocalTracer *telemetry.Tracer
	// LocalProc names the local process's lane in the merged trace
	// (default "server").
	LocalProc string

	mu       sync.Mutex
	reports  map[string]telemetry.Report
	spans    map[string]map[uint64]telemetry.SpanRecord // source -> span Seq -> record
	events   []FleetEvent
	eventSeq uint64
}

// NewFleetAggregator returns an empty aggregator.
func NewFleetAggregator() *FleetAggregator {
	return &FleetAggregator{
		reports: map[string]telemetry.Report{},
		spans:   map[string]map[uint64]telemetry.SpanRecord{},
	}
}

// Record stores a report if it is newer than the source's last one;
// stale (reordered) reports are dropped and reported as such. Accepted
// reports also absorb their span batch (deduped by span sequence, so
// re-sent batches are harmless).
func (a *FleetAggregator) Record(rep telemetry.Report) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, seen := a.reports[rep.Source]
	if seen && rep.Seq <= prev.Seq {
		return false
	}
	a.absorbSpansLocked(rep.Source, rep.Spans)
	rep.Spans = nil // retained separately; don't hold them twice
	a.reports[rep.Source] = rep
	return true
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

// Forget drops a source from the view — what a fleet does when a
// machine leaves mid-rollout, so a departed client's last report does
// not hold the health gate forever. Spans and events are kept: the
// post-mortem outlives the member.
func (a *FleetAggregator) Forget(source string) {
	a.mu.Lock()
	delete(a.reports, source)
	a.mu.Unlock()
}

// Health renders the merged fleet-health view.
func (a *FleetAggregator) Health() FleetHealth {
	a.mu.Lock()
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

// --- Rollout events ---

// Fleet event types: the orchestrator's rollout lifecycle.
const (
	EventRingStart = "ring_start"
	EventPromote   = "promote"
	EventGateFail  = "gate_fail"
	EventRollback  = "rollback"
	EventJoin      = "join"
	EventLeave     = "leave"
	EventKill      = "kill"
	EventRecover   = "recover"
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
	a.eventSeq++
	ev.Seq = a.eventSeq
	if ev.T.IsZero() {
		ev.T = time.Now()
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
	case "/fleet/trace":
		w.Header().Set("Content-Type", "application/json")
		a.WriteMergedTrace(w)
	default:
		http.Error(w, fmt.Sprintf("no fleet route %s", r.URL.Path), http.StatusNotFound)
	}
}
