// Observability tests: traceparent adoption on the server, the
// aggregator's span dedup, and the full cross-process distributed
// trace — client sync spans pushed upstream and merged with the
// server's handler spans into one Chrome trace.
package channel_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/telemetry"
)

// TestServerTraceparentAdoption: a handler span joins the caller's
// trace when the request carries a valid traceparent, and degrades to a
// fresh root trace on a missing or garbage header.
func TestServerTraceparentAdoption(t *testing.T) {
	tr := telemetry.NewTracer(16)
	srv := channel.NewServer(t.TempDir())
	srv.Tracer = tr
	hs := httptest.NewServer(srv)
	defer hs.Close()

	client := telemetry.NewTracer(16)
	csp := client.Start("client.sync")
	get := func(traceparent string) telemetry.SpanRecord {
		t.Helper()
		tr.Reset()
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/channel.json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if traceparent != "" {
			req.Header.Set(telemetry.TraceparentHeader, traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		recs := tr.Snapshot()
		if len(recs) != 1 {
			t.Fatalf("server recorded %d spans, want 1", len(recs))
		}
		return recs[0]
	}

	adopted := get(csp.Traceparent())
	if adopted.TraceID != csp.TraceID() {
		t.Errorf("valid header: server trace id %q, want caller's %q", adopted.TraceID, csp.TraceID())
	}
	if adopted.Parent != csp.ID() {
		t.Errorf("valid header: server span parent %d, want caller span %d", adopted.Parent, csp.ID())
	}

	for _, garbage := range []string{"", "not-a-header", "00-zzzz-1-01"} {
		rec := get(garbage)
		if rec.TraceID == csp.TraceID() || rec.TraceID == "" {
			t.Errorf("garbage %q: trace id %q, want a fresh one", garbage, rec.TraceID)
		}
		if rec.Parent != 0 {
			t.Errorf("garbage %q: span has parent %d, want a root", garbage, rec.Parent)
		}
	}
	csp.End()
}

// TestAggregatorSpanDedup: re-sent and reordered span batches collapse
// to one record per tracer sequence.
func TestAggregatorSpanDedup(t *testing.T) {
	agg := channel.NewFleetAggregator()
	agg.LocalTracer = telemetry.NewTracer(4) // empty: only pushed spans below
	span := func(seq uint64, name string) telemetry.SpanRecord {
		return telemetry.SpanRecord{ID: seq * 100, Root: seq * 100, Seq: seq, Name: name, TraceID: strings.Repeat("a", 32)}
	}
	post := func(reportSeq uint64, spans ...telemetry.SpanRecord) {
		ok := agg.Record(telemetry.Report{Source: "m-a", Seq: reportSeq, Spans: spans})
		if !ok {
			t.Fatalf("report seq %d rejected", reportSeq)
		}
	}
	// First push delivers 1..3; the push response is lost, so the client
	// re-sends 1..3 along with 4 — and out of order for good measure.
	post(1, span(1, "a"), span(2, "b"), span(3, "c"))
	post(2, span(4, "d"), span(2, "b"), span(1, "a"), span(3, "c"))

	recs := agg.SpanRecords()
	seqs := map[uint64]int{}
	for _, r := range recs {
		seqs[r.Seq]++
	}
	if len(recs) != 4 {
		t.Fatalf("aggregator holds %d spans, want 4 (got seqs %v)", len(recs), seqs)
	}
	for s := uint64(1); s <= 4; s++ {
		if seqs[s] != 1 {
			t.Errorf("seq %d appears %d times, want exactly once", s, seqs[s])
		}
	}
	for _, r := range recs {
		if r.Proc != "m-a" {
			t.Errorf("pushed span proc = %q, want source name", r.Proc)
		}
	}
}

// TestMergedTraceEndToEnd is the tentpole's proof in miniature: a real
// client sync over HTTP against a real channel server, the client's
// spans pushed to the aggregator, and /fleet/trace serving one Chrome
// trace in which the client's fetch spans and the server's handler
// spans share a trace id with a parent/child link across the process
// boundary.
func TestMergedTraceEndToEnd(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	c := cvedb.ForVersion(version)[0]
	if _, err := pub.Publish("u0", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}

	serverTracer := telemetry.NewTracer(256)
	agg := channel.NewFleetAggregator()
	agg.LocalTracer = serverTracer
	agg.LocalProc = "channel-server"
	srv := channel.NewServer(dir)
	srv.Tracer = serverTracer
	srv.Fleet = agg
	hs := httptest.NewServer(srv)
	defer hs.Close()

	k, err := kernel.Boot(cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := channel.NewClient(channel.ClientConfig{
		Name:      "m-trace",
		Transport: channel.NewHTTPTransport(hs.URL, channel.HTTPOptions{Timeout: 10 * time.Second}),
		Tracer:    telemetry.NewTracer(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Bind(core.NewManager(k), 0)
	ctx := context.Background()
	applied, err := cl.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("applied %d updates, want 1", len(applied))
	}
	if err := cl.Pusher(hs.URL + "/fleet/report").Push(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/fleet/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := telemetry.CheckMergedTrace(b)
	if err != nil {
		t.Fatalf("merged trace failed the cross-process check: %v\ntrace:\n%s", err, b)
	}
	wantProcs := map[string]bool{"m-trace": false, "channel-server": false}
	for _, p := range chk.Procs {
		if _, ok := wantProcs[p]; ok {
			wantProcs[p] = true
		}
	}
	for p, seen := range wantProcs {
		if !seen {
			t.Errorf("merged trace has no %q lane (procs %v)", p, chk.Procs)
		}
	}
	if !chk.Linked || len(chk.CrossTraces) == 0 {
		t.Errorf("check = %+v, want linked cross-process traces", chk)
	}

	// The sync root's trace must be among the cross-process ones: the
	// client.sync → fetch → server.manifest chain crossed the wire.
	syncTrace := ""
	for _, rec := range cl.Tracer().Snapshot() {
		if rec.Name == "client.sync" {
			syncTrace = rec.TraceID
		}
	}
	if syncTrace == "" {
		t.Fatal("client recorded no client.sync span")
	}
	found := false
	for _, tr := range chk.CrossTraces {
		if tr == syncTrace {
			found = true
		}
	}
	if !found {
		t.Errorf("sync trace %s not among cross-process traces %v", syncTrace, chk.CrossTraces)
	}
}
