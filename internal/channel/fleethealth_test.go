package channel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/telemetry"
)

// machineRegistry builds a registry carrying the client-metric families
// the health view extracts, with fixed values.
func machineRegistry(pos int64, applied, degraded, refetches, bytes uint64) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Gauge(channel.MetricPosition).Set(pos)
	reg.Counter(channel.MetricApplied).Add(applied)
	reg.Counter(channel.MetricDegraded).Add(degraded)
	reg.Counter(channel.MetricRefetches).Add(refetches)
	reg.Counter(channel.MetricBytesOverWire).Add(bytes)
	return reg
}

// postReport pushes one report through the real Pusher.
func postReport(t *testing.T, url, source string, reg *telemetry.Registry) {
	t.Helper()
	p := &telemetry.Pusher{URL: url + "/fleet/report", Source: source, Gather: reg.Snapshot}
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetHealthGolden: the /fleet/health wire format, byte for byte —
// the view operators script against and the orchestrator's gate parses.
// The fleet routes are control plane: they never touch the channel
// directory, so an empty one serves.
func TestFleetHealthGolden(t *testing.T) {
	srv := channel.NewServer(t.TempDir())
	srv.Fleet = channel.NewFleetAggregator()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	postReport(t, hs.URL, "m-a", machineRegistry(3, 3, 0, 1, 4096))
	postReport(t, hs.URL, "m-b", machineRegistry(1, 1, 1, 0, 1024))

	resp, err := http.Get(hs.URL + "/fleet/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet/health: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	const golden = `{
  "sources": 2,
  "applied": 4,
  "degraded": 1,
  "refetches": 1,
  "delta_fallbacks": 0,
  "stress_failures": 0,
  "recoveries": 0,
  "journal_replays": 0,
  "torn_state_detected": 0,
  "bytes_over_wire": 5120,
  "clients": [
    {
      "source": "m-a",
      "seq": 1,
      "position": 3,
      "applied": 3,
      "degraded": 0,
      "refetches": 1,
      "delta_fallbacks": 0,
      "stress_failures": 0,
      "recoveries": 0,
      "journal_replays": 0,
      "torn_state_detected": 0,
      "bytes_over_wire": 4096
    },
    {
      "source": "m-b",
      "seq": 1,
      "position": 1,
      "applied": 1,
      "degraded": 1,
      "refetches": 0,
      "delta_fallbacks": 0,
      "stress_failures": 0,
      "recoveries": 0,
      "journal_replays": 0,
      "torn_state_detected": 0,
      "bytes_over_wire": 1024
    }
  ]
}
`
	if string(body) != golden {
		t.Errorf("health view drifted from the golden format:\ngot:\n%s\nwant:\n%s", body, golden)
	}
}

// TestFleetReportSequencing: stale (reordered) reports are acknowledged
// with 202 but do not roll a source's state backwards, and Forget drops
// a source from the view.
func TestFleetReportSequencing(t *testing.T) {
	dir := t.TempDir()
	srv := channel.NewServer(dir)
	agg := channel.NewFleetAggregator()
	srv.Fleet = agg
	hs := httptest.NewServer(srv)
	defer hs.Close()

	post := func(source string, seq uint64, pos int64) int {
		rep := telemetry.Report{Source: source, Seq: seq, Snapshot: machineRegistry(pos, uint64(pos), 0, 0, 0).Snapshot()}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/fleet/report", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("m-a", 2, 5); code != http.StatusNoContent {
		t.Fatalf("fresh report: %d", code)
	}
	if code := post("m-a", 1, 2); code != http.StatusAccepted {
		t.Fatalf("stale report: %d, want 202", code)
	}
	h := agg.Health()
	if len(h.Clients) != 1 || h.Clients[0].Position != 5 {
		t.Fatalf("stale report applied: %+v", h.Clients)
	}

	// Equal sequence is also stale — retransmissions do not churn state.
	if code := post("m-a", 2, 9); code != http.StatusAccepted {
		t.Errorf("replayed seq: %d, want 202", code)
	}

	agg.Forget("m-a")
	if h := agg.Health(); h.Sources != 0 {
		t.Errorf("%d sources after Forget", h.Sources)
	}

	// A GET of the report route is a method error, and reports without a
	// Fleet aggregator 404 (control plane stays off plain servers).
	resp, err := http.Get(hs.URL + "/fleet/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /fleet/report: %d, want 405", resp.StatusCode)
	}
	// The aggregator serves /fleet/report, /fleet/health and /fleet/trace
	// only; anything else under /fleet/ is unknown.
	for _, route := range []string{"/fleet/history", "/fleet/vars", "/fleet/events"} {
		resp, err := http.Get(hs.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", route, resp.StatusCode)
		}
	}
	bare := httptest.NewServer(channel.NewServer(dir))
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/fleet/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("fleet route on a server without an aggregator: %d, want 404", resp2.StatusCode)
	}
}

// FuzzFleetReport: any pair of bodies POSTed to /fleet/report — decoded
// by ReadReport and, when they decode, recorded in turn — leaves every
// read view of the aggregator (health, spans, merged trace) able to
// render without panicking. The seeds are the golden test's reports, a
// report carrying spans, and a histogram pair whose second member has
// the first's bounds but fewer counts.
func FuzzFleetReport(f *testing.F) {
	seed := func(rep telemetry.Report) []byte {
		b, err := json.Marshal(rep)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(telemetry.Report{Source: "m-a", Seq: 1, Snapshot: machineRegistry(3, 3, 0, 1, 4096).Snapshot()}),
		seed(telemetry.Report{Source: "m-b", Seq: 1, Snapshot: machineRegistry(1, 1, 1, 0, 1024).Snapshot()}))
	f.Add(seed(telemetry.Report{Source: "m-a", Seq: 1, Spans: []telemetry.SpanRecord{
		{ID: 100, Root: 100, Seq: 1, Name: "client.sync", TraceID: strings.Repeat("a", 32)},
		{ID: 101, Parent: 100, Root: 100, Seq: 2, Name: "client.fetch", TraceID: strings.Repeat("a", 32)},
	}}), seed(telemetry.Report{Source: "m-a", Seq: 2, Spans: []telemetry.SpanRecord{
		{ID: 101, Parent: 100, Root: 100, Seq: 2, Name: "client.fetch", TraceID: strings.Repeat("a", 32)},
	}}))
	f.Add([]byte(`{"source":"m-a","seq":1,"snapshot":{"histograms":{"h":{"bounds":[1],"counts":[1,2]}}}}`),
		[]byte(`{"source":"m-b","seq":1,"snapshot":{"histograms":{"h":{"bounds":[1],"counts":[]}}}}`))

	f.Fuzz(func(t *testing.T, first, second []byte) {
		agg := channel.NewFleetAggregator()
		agg.LocalTracer = telemetry.NewTracer(4)
		for _, body := range [][]byte{first, second} {
			if rep, err := telemetry.ReadReport(bytes.NewReader(body)); err == nil {
				agg.Record(rep)
			}
		}
		agg.Health()
		agg.SpanRecords()
		if err := agg.WriteMergedTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
