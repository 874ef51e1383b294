package telemetry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPusherRoundtrip: Push wraps the gathered snapshot in a
// seq-numbered report that ReadReport decodes intact, and sequence
// numbers strictly increase across pushes.
func TestPusherRoundtrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pushed_total").Add(42)
	reg.Gauge("pos").Set(7)

	var mu sync.Mutex
	var got []Report
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep, err := ReadReport(r.Body)
		if err != nil {
			t.Errorf("ReadReport: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, rep)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	p := &Pusher{URL: srv.URL, Source: "m-01", Gather: reg.Snapshot}
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg.Counter("pushed_total").Add(8)
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("server saw %d reports, want 2", len(got))
	}
	if got[0].Source != "m-01" || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("report envelopes: %+v", got)
	}
	if got[0].Snapshot.Counter("pushed_total") != 42 || got[1].Snapshot.Counter("pushed_total") != 50 {
		t.Errorf("pushed counters: %d then %d, want 42 then 50",
			got[0].Snapshot.Counter("pushed_total"), got[1].Snapshot.Counter("pushed_total"))
	}
	if got[0].Snapshot.Gauge("pos") != 7 {
		t.Errorf("pushed gauge = %d, want 7", got[0].Snapshot.Gauge("pos"))
	}
}

// TestReadReportRejects: anonymous and oversized reports are refused.
func TestReadReportRejects(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"seq":1,"snapshot":{}}`)); err == nil {
		t.Error("report with no source accepted")
	}
	if _, err := ReadReport(strings.NewReader(`{garbage`)); err == nil {
		t.Error("malformed report accepted")
	}
	huge := `{"source":"x","seq":1,"snapshot":{"counters":{"a":` + strings.Repeat("1", MaxReportBytes) + `}}}`
	if _, err := ReadReport(strings.NewReader(huge)); err == nil {
		t.Error("oversized report accepted")
	}
}
