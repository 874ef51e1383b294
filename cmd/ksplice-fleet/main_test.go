package main

import (
	"os"
	"strings"
	"testing"

	"gosplice/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "ksplice-fleet", main) }

// TestBadExpectRefusedBeforeRollout: a mistyped -expect exits 2 with the
// reason before the fleet is built, so nothing is published into the
// work directory and no rollout runs.
func TestBadExpectRefusedBeforeRollout(t *testing.T) {
	work := t.TempDir()
	stdout, stderr, code := clitest.Run(t, "-clients", "8", "-q", "-expect", "bogus", "-work", work)
	if code != 2 {
		t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, `bad -expect "bogus" (want converge or halt)`) {
		t.Errorf("stderr %q does not name the bad -expect", stderr)
	}
	if stdout != "" {
		t.Errorf("refused run printed %q", stdout)
	}
	if ents, err := os.ReadDir(work); err != nil || len(ents) != 0 {
		t.Errorf("work dir after refusal: %d entries (%v), want none published", len(ents), err)
	}
}
