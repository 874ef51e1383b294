package channel

import (
	"context"
	"strconv"
	"time"

	"gosplice/internal/telemetry"
)

// Channel telemetry. Server-side families count requests per route and
// status (206 = a Range resume served, 304 = an ETag revalidation) and
// time request handling; they live on the process-wide registry because
// a process serves at most a handful of channels. Client-side families
// count the transport's retry/backoff/resume behaviour and the
// subscriber's end-to-end integrity enforcement; they are built as
// clientMetrics sets so that a channel.Client can own a private registry
// (what it pushes upstream in fleet reports) while every increment also
// lands on the process-wide mirror — the chaos soak asserts its
// conservation invariants over the mirrors, and a process full of
// clients still scrapes one coherent /metrics.

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

// mCounter is a counter plus an optional process-wide mirror: a
// per-client increment also moves the fleet-wide total, the same pattern
// faultinject plans use.
type mCounter struct {
	own, mirror *telemetry.Counter
}

func (c mCounter) Inc() {
	c.own.Inc()
	if c.mirror != nil {
		c.mirror.Inc()
	}
}

func (c mCounter) Add(n uint64) {
	c.own.Add(n)
	if c.mirror != nil {
		c.mirror.Add(n)
	}
}

// mHistogram mirrors like mCounter.
type mHistogram struct {
	own, mirror *telemetry.Histogram
}

func (h mHistogram) ObserveDuration(d time.Duration) {
	h.own.ObserveDuration(d)
	if h.mirror != nil {
		h.mirror.ObserveDuration(d)
	}
}

// clientMetrics is one subscriber's view of the client-side families:
// transport behaviour (retries, backoff, resumes), end-to-end integrity
// (refetches), subscribe outcomes (applied, degraded), and the delta
// machinery (deltas, fallbacks, wire bytes).
type clientMetrics struct {
	reg *telemetry.Registry

	retries        mCounter
	resumes        mCounter
	refetches      mCounter
	applied        mCounter
	degraded       mCounter
	deltaApplied   mCounter
	deltaFallback  mCounter
	bytesOverWire  mCounter
	recoveries     mCounter
	journalReplays mCounter
	tornDetected   mCounter
	backoff        mHistogram
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

// newClientMetrics builds a metric set on reg, mirrored into mirror
// (pass nil for the un-mirrored set — i.e. the process-wide one).
func newClientMetrics(reg *telemetry.Registry, mirror *clientMetrics) *clientMetrics {
	clientHelps(reg)
	cm := &clientMetrics{reg: reg, position: reg.Gauge(MetricPosition)}
	cm.retries.own = reg.Counter("gosplice_channel_client_retries_total")
	cm.resumes.own = reg.Counter("gosplice_channel_client_resumes_total")
	cm.refetches.own = reg.Counter(MetricRefetches)
	cm.applied.own = reg.Counter(MetricApplied)
	cm.degraded.own = reg.Counter(MetricDegraded)
	cm.deltaApplied.own = reg.Counter("gosplice_channel_delta_applied_total")
	cm.deltaFallback.own = reg.Counter(MetricDeltaFallback)
	cm.bytesOverWire.own = reg.Counter(MetricBytesOverWire)
	cm.recoveries.own = reg.Counter(MetricRecoveries)
	cm.journalReplays.own = reg.Counter(MetricJournalReplays)
	cm.tornDetected.own = reg.Counter(MetricTornState)
	cm.backoff.own = reg.Histogram("gosplice_channel_client_backoff_seconds", nil)
	if mirror != nil {
		cm.retries.mirror = mirror.retries.own
		cm.resumes.mirror = mirror.resumes.own
		cm.refetches.mirror = mirror.refetches.own
		cm.applied.mirror = mirror.applied.own
		cm.degraded.mirror = mirror.degraded.own
		cm.deltaApplied.mirror = mirror.deltaApplied.own
		cm.deltaFallback.mirror = mirror.deltaFallback.own
		cm.bytesOverWire.mirror = mirror.bytesOverWire.own
		cm.recoveries.mirror = mirror.recoveries.own
		cm.journalReplays.mirror = mirror.journalReplays.own
		cm.tornDetected.mirror = mirror.tornDetected.own
		cm.backoff.mirror = mirror.backoff.own
	}
	return cm
}

// defaultClientMetrics is the process-wide set: what transport requests
// made outside any client count into, and what every per-client set
// mirrors.
var defaultClientMetrics = newClientMetrics(telemetry.Default(), nil)

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

// registryClientMetrics returns the metric set for a per-instance
// registry (mirrored into the process-wide set), or the process-wide set
// itself when reg is nil or the Default registry.
func registryClientMetrics(reg *telemetry.Registry) *clientMetrics {
	if reg == nil || reg == telemetry.Default() {
		return defaultClientMetrics
	}
	return newClientMetrics(reg, defaultClientMetrics)
}
