package channel

import (
	"context"
	"strconv"

	"gosplice/internal/telemetry"
)

// Channel telemetry. Server-side families count requests per route and
// status (206 = a Range resume served, 304 = an ETag revalidation) and
// time request handling; they live on the process-wide registry because
// a process serves at most a handful of channels. Client-side families
// count the transport's retry/backoff/resume behaviour and the
// subscriber's end-to-end integrity enforcement; they are built as
// clientMetrics sets on each channel.Client's own registry (what it
// pushes upstream in fleet reports). That registry rolls up into the
// process-wide one, so a process full of clients still scrapes one
// coherent /metrics, and the chaos soak asserts its conservation
// invariants over the process-wide totals.

var (
	cRequests = func() func(route string, code int) *telemetry.Counter {
		d := telemetry.Default()
		d.Help("gosplice_channel_requests_total", "server requests by route and HTTP status")
		// Pre-create the taxonomy's steady-state children so a fresh
		// server scrapes non-empty families.
		for _, route := range []string{"manifest", "update", "blob"} {
			d.Counter("gosplice_channel_requests_total",
				telemetry.L("route", route), telemetry.L("code", "200"))
		}
		return func(route string, code int) *telemetry.Counter {
			return d.Counter("gosplice_channel_requests_total",
				telemetry.L("route", route), telemetry.L("code", strconv.Itoa(code)))
		}
	}()

	hRequest = func() func(route string) *telemetry.Histogram {
		d := telemetry.Default()
		d.Help("gosplice_channel_request_seconds", "server request handling latency by route")
		return func(route string) *telemetry.Histogram {
			return d.Histogram("gosplice_channel_request_seconds", nil, telemetry.L("route", route))
		}
	}()
)

// Client-side metric family names. Exported as constants because the
// fleet-health aggregation (fleethealth.go) extracts exactly these
// families from pushed per-client snapshots.
const (
	// MetricPosition is the per-client channel-position gauge a Client
	// maintains on its registry.
	MetricPosition = "gosplice_client_position"
	// MetricApplied counts updates verified and applied.
	MetricApplied = "gosplice_channel_updates_applied_total"
	// MetricDegraded counts subscribes that stopped before the head.
	MetricDegraded = "gosplice_channel_subscribe_degraded_total"
	// MetricRefetches counts end-to-end integrity refetches.
	MetricRefetches = "gosplice_channel_integrity_refetches_total"
	// MetricDeltaFallback counts delta reconstructions abandoned for a
	// full fetch.
	MetricDeltaFallback = "gosplice_channel_delta_fallback_full_total"
	// MetricBytesOverWire counts content bytes pulled through a
	// Transport.
	MetricBytesOverWire = "gosplice_channel_bytes_over_wire_total"
	// MetricStressFailures counts failed post-apply stress probes. The
	// channel client never increments it itself — the fleet orchestrator
	// (or any other health prober) registers it on the client's registry
	// — but the health view extracts it alongside the client families.
	MetricStressFailures = "gosplice_fleet_stress_failures_total"
	// MetricRecoveries counts journal recovery passes that rebuilt a
	// machine after a crash (RestoreMachine with persisted state).
	MetricRecoveries = "gosplice_channel_recoveries_total"
	// MetricJournalReplays counts updates re-applied from the journal
	// during recovery (from the blob cache or a refetch).
	MetricJournalReplays = "gosplice_channel_journal_replays_total"
	// MetricTornState counts torn persistent state detected on open: a
	// journal tail dropped by the checksum scan, a wholly corrupt
	// journal, or a begin record with no commit (a mid-flight apply).
	MetricTornState = "gosplice_channel_torn_state_detected_total"
)

// clientMetrics is one subscriber's view of the client-side families:
// transport behaviour (retries, backoff, resumes), end-to-end integrity
// (refetches), subscribe outcomes (applied, degraded), and the delta
// machinery (deltas, fallbacks, wire bytes).
type clientMetrics struct {
	reg *telemetry.Registry

	retries        *telemetry.Counter
	resumes        *telemetry.Counter
	refetches      *telemetry.Counter
	applied        *telemetry.Counter
	degraded       *telemetry.Counter
	deltaApplied   *telemetry.Counter
	deltaFallback  *telemetry.Counter
	bytesOverWire  *telemetry.Counter
	recoveries     *telemetry.Counter
	journalReplays *telemetry.Counter
	tornDetected   *telemetry.Counter
	backoff        *telemetry.Histogram
	position       *telemetry.Gauge
}

// clientHelps registers family help text on a registry.
func clientHelps(r *telemetry.Registry) {
	r.Help("gosplice_channel_client_retries_total",
		"transport-level retries (one backoff sleep each)")
	r.Help("gosplice_channel_client_backoff_seconds",
		"time spent sleeping between retry attempts")
	r.Help("gosplice_channel_client_resumes_total",
		"fetches resumed mid-body via a Range request (206 served)")
	r.Help(MetricRefetches,
		"tarballs that failed the end-to-end digest/size/parse check and were refetched")
	r.Help(MetricApplied,
		"channel updates verified and applied by subscribers in this process")
	r.Help(MetricDegraded,
		"subscribes that stopped before the channel head (PositionError)")
	r.Help("gosplice_channel_delta_applied_total",
		"blobs reconstructed from a binary delta instead of fetched whole")
	r.Help(MetricDeltaFallback,
		"delta reconstructions abandoned (base missing, delta corrupt, or wrong result) in favour of a full fetch")
	r.Help(MetricBytesOverWire,
		"content bytes subscribers pulled through a Transport (tarballs and deltas)")
	r.Help(MetricPosition,
		"the machine's channel position (updates applied)")
	r.Help(MetricRecoveries,
		"journal recovery passes that rebuilt a machine after a crash")
	r.Help(MetricJournalReplays,
		"updates re-applied from the apply journal during recovery")
	r.Help(MetricTornState,
		"torn persistent state detected on open (dropped journal records, corrupt journals, mid-flight applies)")
}

// newClientMetrics builds a metric set on reg.
func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	clientHelps(reg)
	return &clientMetrics{
		reg:            reg,
		retries:        reg.Counter("gosplice_channel_client_retries_total"),
		resumes:        reg.Counter("gosplice_channel_client_resumes_total"),
		refetches:      reg.Counter(MetricRefetches),
		applied:        reg.Counter(MetricApplied),
		degraded:       reg.Counter(MetricDegraded),
		deltaApplied:   reg.Counter("gosplice_channel_delta_applied_total"),
		deltaFallback:  reg.Counter(MetricDeltaFallback),
		bytesOverWire:  reg.Counter(MetricBytesOverWire),
		recoveries:     reg.Counter(MetricRecoveries),
		journalReplays: reg.Counter(MetricJournalReplays),
		tornDetected:   reg.Counter(MetricTornState),
		backoff:        reg.Histogram("gosplice_channel_client_backoff_seconds", nil),
		position:       reg.Gauge(MetricPosition),
	}
}

// defaultClientMetrics is the process-wide set: what transport requests
// made outside any client count into.
var defaultClientMetrics = newClientMetrics(telemetry.Default())

// clientMetricsKey carries a client's metric set on the contexts its
// passes derive (see Client.syncCtx).
type clientMetricsKey struct{}

// metricsFrom returns the metric set of the client whose pass derived
// ctx, or the process-wide set for a request made without one.
func metricsFrom(ctx context.Context) *clientMetrics {
	if ms, ok := ctx.Value(clientMetricsKey{}).(*clientMetrics); ok {
		return ms
	}
	return defaultClientMetrics
}
