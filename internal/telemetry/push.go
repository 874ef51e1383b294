package telemetry

// Push reporting: the client half of fleet aggregation. A subscriber's
// per-instance registry snapshot is already a wire format (the same JSON
// /debug/vars serves), so pushing telemetry upstream is just POSTing a
// snapshot wrapped in a source-identifying envelope. The server half —
// the channel server's /fleet/report endpoint — records the latest
// report per source and serves a merged fleet view; see
// internal/channel.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Report is one pushed telemetry snapshot: who it came from, a
// monotonically increasing sequence number (so late-arriving reports
// never roll a source's state backwards), and the snapshot itself.
type Report struct {
	Source   string   `json:"source"`
	Seq      uint64   `json:"seq"`
	Snapshot Snapshot `json:"snapshot"`
	// Spans carries the source tracer's completed spans since the last
	// acknowledged push. Each span's Seq is the tracer's commit sequence,
	// so an aggregator can dedupe re-sent or reordered batches.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// MaxReportBytes bounds one report's encoded size on both ends of the
// wire: pushers refuse to send more, aggregators refuse to read more.
const MaxReportBytes = 8 << 20

// pushClient bounds every push POST.
var pushClient = &http.Client{Timeout: 5 * time.Second}

// Pusher POSTs a registry snapshot to an aggregation endpoint, once per
// Push. Pushes are strictly best-effort: a failed POST costs the
// operator one stale report, never the subscriber anything — the next
// push carries cumulative counters, so nothing is lost, only delayed.
type Pusher struct {
	// URL is the aggregation endpoint (e.g. http://host:port/fleet/report).
	URL string
	// Source identifies this pusher in the fleet view.
	Source string
	// Gather produces the snapshot to push; nil snapshots Default, the
	// whole process.
	Gather func() Snapshot
	// Tracer, when non-nil, has its completed spans shipped alongside
	// each snapshot. The span cursor only advances on a successful push,
	// so a failed POST re-sends the batch (the aggregator dedupes by
	// span Seq).
	Tracer *Tracer

	seq     atomic.Uint64
	lastSeq atomic.Uint64 // highest span Seq acknowledged by the aggregator
}

// Push sends one report now. Each call advances the sequence number, so
// the aggregator can discard reordered reports.
func (p *Pusher) Push(ctx context.Context) error {
	gather := p.Gather
	if gather == nil {
		gather = Default().Snapshot
	}
	rep := Report{Source: p.Source, Seq: p.seq.Add(1), Snapshot: gather()}
	var spanHigh uint64
	if p.Tracer != nil {
		rep.Spans = p.Tracer.SnapshotSince(p.lastSeq.Load())
		if n := len(rep.Spans); n > 0 {
			spanHigh = rep.Spans[n-1].Seq
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("telemetry: push: %w", err)
	}
	if len(b) > MaxReportBytes {
		return fmt.Errorf("telemetry: push: report is %d bytes (cap %d)", len(b), MaxReportBytes)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL, bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("telemetry: push: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := pushClient.Do(req)
	if err != nil {
		return fmt.Errorf("telemetry: push: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("telemetry: push: server returned %s", resp.Status)
	}
	if spanHigh > p.lastSeq.Load() {
		p.lastSeq.Store(spanHigh)
	}
	return nil
}

// ReadReport decodes one pushed report from an HTTP request body,
// enforcing the size cap. The aggregator side of Push.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	b, err := io.ReadAll(io.LimitReader(r, MaxReportBytes+1))
	if err != nil {
		return rep, fmt.Errorf("telemetry: report: %w", err)
	}
	if len(b) > MaxReportBytes {
		return rep, fmt.Errorf("telemetry: report exceeds %d bytes", MaxReportBytes)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("telemetry: report: %w", err)
	}
	if rep.Source == "" {
		return rep, fmt.Errorf("telemetry: report names no source")
	}
	return rep, nil
}
