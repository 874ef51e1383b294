package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gosplice/internal/telemetry"
)

// TestEndWritesTrace: the exit hook treats an empty -trace-out as a
// no-op, and otherwise writes a parseable Chrome trace whose root span
// carries the error a failing tool recorded on it.
func TestEndWritesTrace(t *testing.T) {
	tr := telemetry.NewTracer(4)
	r := &Runtime{name: "tool", trace: tr.WriteChromeTrace, span: tr.Start("tool")}
	if err := r.end(); err != nil {
		t.Fatalf("empty -trace-out should be a no-op: %v", err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	tr.Reset()
	r = &Runtime{name: "tool", traceOut: path, trace: tr.WriteChromeTrace, span: tr.Start("tool")}
	r.span.SetAttr("error", "no updates applied")
	if err := r.end(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("trace file not JSON: %v\n%s", err, b)
	}
	if len(out.TraceEvents) != 1 || out.TraceEvents[0].Name != "tool" ||
		out.TraceEvents[0].Args["error"] != "no updates applied" {
		t.Fatalf("want one root span \"tool\" carrying the error, got %s", b)
	}
}
