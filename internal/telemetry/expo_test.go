package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition for a fixed registry:
// sorted families, help + type lines, histogram expansion into
// cumulative buckets.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("gosplice_store_gets_total", "store lookups by tier and outcome")
	r.Counter("gosplice_store_gets_total", L("tier", "mem"), L("outcome", "hit")).Add(7)
	r.Counter("gosplice_store_gets_total", L("tier", "disk"), L("outcome", "miss")).Add(2)
	r.Gauge("gosplice_eval_queue_depth").Set(3)
	r.Help("gosplice_store_fill_seconds", "fill latency")
	h := r.Histogram("gosplice_store_fill_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE gosplice_eval_queue_depth gauge
gosplice_eval_queue_depth 3
# HELP gosplice_store_fill_seconds fill latency
# TYPE gosplice_store_fill_seconds histogram
gosplice_store_fill_seconds_bucket{le="+Inf"} 3
gosplice_store_fill_seconds_bucket{le="0.1"} 1
gosplice_store_fill_seconds_bucket{le="1"} 2
gosplice_store_fill_seconds_count 3
gosplice_store_fill_seconds_sum 5.55
# HELP gosplice_store_gets_total store lookups by tier and outcome
# TYPE gosplice_store_gets_total counter
gosplice_store_gets_total{outcome="hit",tier="mem"} 7
gosplice_store_gets_total{outcome="miss",tier="disk"} 2
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("golden exposition fails own validator: %v", err)
	}
}

// TestPrometheusDeterministic: repeated renders of the same state are
// byte-identical.
func TestPrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.Counter("c_total", L("i", string(rune('a'+i%5)))).Add(uint64(i))
	}
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same registry rendered two ways:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `c_total{i="a"}`) {
		t.Errorf("missing expected child:\n%s", a.String())
	}
}

// TestHelpOnlyFamilyExposed: a family with Help but no children yet
// still appears (as untyped metadata) so a fresh process scrapes the
// full taxonomy.
func TestHelpOnlyFamilyExposed(t *testing.T) {
	r := NewRegistry()
	r.Help("gosplice_future_total", "not yet incremented")
	r.Counter("alive_total").Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE gosplice_future_total untyped") {
		t.Errorf("help-only family dropped:\n%s", buf.String())
	}
}

// TestWriteJSON round-trips the /debug/vars body.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(4)
	r.Gauge("g").Set(-2)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("debug/vars body is not JSON: %v\n%s", err, buf.String())
	}
	if s.Counter("c_total") != 4 || s.Gauge("g") != -2 || s.Histograms["h"].Count != 1 {
		t.Errorf("round-trip lost values: %+v", s)
	}
}

// TestHandlerRoutes exercises the HTTP surface end to end.
func TestHandlerRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics: code=%d ctype=%q", code, ctype)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Errorf("/metrics body invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "served_total 9") {
		t.Errorf("/metrics missing sample:\n%s", body)
	}

	code, ctype, body = get("/debug/vars")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/vars: code=%d ctype=%q", code, ctype)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Errorf("/debug/vars not JSON: %v", err)
	}

	if code, _, _ = get("/nope"); code != 404 {
		t.Errorf("unknown path: code=%d, want 404", code)
	}
}

// TestServeLoopback: the -metrics-addr implementation binds an
// ephemeral port, serves a valid scrape, and stops cleanly. Empty addr
// is a no-op.
func TestServeLoopback(t *testing.T) {
	if bound, stop, err := ServeLoopback(""); err != nil || bound != "" {
		t.Fatalf("empty addr: bound=%q err=%v", bound, err)
	} else {
		stop()
	}

	Default().Counter("gosplice_loopback_test_total").Inc()
	bound, stop, err := ServeLoopback("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if err := ValidateExposition(b); err != nil {
		t.Fatalf("loopback scrape invalid: %v\n%s", err, b)
	}
	if !strings.Contains(string(b), "gosplice_loopback_test_total") {
		t.Fatalf("loopback scrape misses Default() metric:\n%s", b)
	}
}

// TestValidateExposition covers the accept/reject matrix the CI smoke
// depends on.
func TestValidateExposition(t *testing.T) {
	valid := []string{
		"a_total 1\n",
		"# HELP x helps\n# TYPE x counter\nx 3.5\n",
		"x{a=\"b\"} 1\nx{a=\"c\"} 2\ny 0\n",
		"x{a=\"q\\\"uote\",b=\"new\\nline\"} +Inf\n",
		"x 1 1690000000000\n",
		"# random comment without keyword\nx 1\n",
		"h_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n",
	}
	for _, in := range valid {
		if err := ValidateExposition([]byte(in)); err != nil {
			t.Errorf("valid input rejected: %v\n%s", err, in)
		}
	}

	invalid := map[string]string{
		"empty":             "",
		"comments only":     "# TYPE x counter\n",
		"bad name":          "9x 1\n",
		"bad value":         "x one\n",
		"no value":          "x\n",
		"unterminated":      "x{a=\"b\n",
		"bad label name":    "x{9a=\"b\"} 1\n",
		"unquoted label":    "x{a=b} 1\n",
		"unknown type":      "# TYPE x widget\nx 1\n",
		"duplicate type":    "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"bad timestamp":     "x 1 soon\n",
		"split family":      "x 1\ny 2\nx 3\n",
		"trailing garbage":  "x{a=\"b\"}1\n",
		"value then excess": "x 1 2 3\n",
	}
	for name, in := range invalid {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: accepted invalid input:\n%s", name, in)
		}
	}
}
