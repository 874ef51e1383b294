package main

import (
	"strings"
	"testing"

	"gosplice/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "ksplice-eval", main) }

// TestOnlyRefusesUnknownCVE: an -only list naming an id outside the
// corpus exits 2 naming that id, rather than evaluating nothing and
// reporting a clean "0 of 0" run.
func TestOnlyRefusesUnknownCVE(t *testing.T) {
	for _, only := range []string{"CVE-bogus", "CVE-2006-2451,CVE-bogus"} {
		stdout, stderr, code := clitest.Run(t, "-only", only, "-table", "headline")
		if code != 2 {
			t.Errorf("-only %s: exit %d, want 2 (stderr %q)", only, code, stderr)
		}
		if !strings.Contains(stderr, `unknown CVE "CVE-bogus"`) {
			t.Errorf("-only %s: stderr %q does not name the unknown id", only, stderr)
		}
		if stdout != "" {
			t.Errorf("-only %s: refused run printed %q", only, stdout)
		}
	}
}

func TestUnknownTableRefused(t *testing.T) {
	if _, stderr, code := clitest.Run(t, "-table", "nope"); code != 2 || !strings.Contains(stderr, "unknown table/figure") {
		t.Errorf("-table nope: exit %d, stderr %q; want exit 2 naming the table", code, stderr)
	}
}
