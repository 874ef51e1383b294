package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/cli/clitest"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/simstate"
)

func TestMain(m *testing.M) { clitest.Main(m, "ksplice-channel", main) }

// TestSubscribeRefusesForeignUpdate: a machine carrying a tarball that
// ksplice-apply applied from outside the channel must not subscribe.
// The client binds at the machine's update count, so the local update
// would stand in for the channel's first entry, whose fix would then
// never be applied. The subscribe exits 1, names the foreign update and
// leaves the state file as it was.
func TestSubscribeRefusesForeignUpdate(t *testing.T) {
	const rel = "sim-2.6.16-deb"
	work := t.TempDir()
	chanDir := filepath.Join(work, "chan")
	pub, err := channel.NewPublisher(chanDir, cvedb.Tree(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"CVE-2005-4800", "CVE-2005-4804"} {
		c, ok := cvedb.ByID(id)
		if !ok {
			t.Fatalf("no corpus entry %s", id)
		}
		if _, err := pub.Publish("ksplice-"+id, id, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}

	c, ok := cvedb.ByID("CVE-2005-4812")
	if !ok {
		t.Fatal("no corpus entry CVE-2005-4812")
	}
	u, err := core.CreateUpdate(cvedb.Tree(rel), c.Patch(), core.CreateOptions{Name: "ksplice-2005-4812"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := u.EncodeTar()
	if err != nil {
		t.Fatal(err)
	}
	const local = "ksplice-2005-4812.tar"
	if err := os.WriteFile(filepath.Join(work, local), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := simstate.New(rel)
	if err != nil {
		t.Fatal(err)
	}
	st.Updates = []string{local}
	statePath := filepath.Join(work, "machine.json")
	if err := st.Save(statePath); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := clitest.Run(t, "-subscribe", "-dir", chanDir, "-state", statePath)
	if code != 1 {
		t.Errorf("exit %d, want 1 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stderr, local) {
		t.Errorf("stderr %q does not name the foreign update %s", stderr, local)
	}
	if strings.Contains(stdout, "applied ") {
		t.Errorf("refused subscribe applied updates: %q", stdout)
	}
	got, err := simstate.Load(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Updates) != 1 || got.Updates[0] != local {
		t.Errorf("state file lists %v after the refusal, want just %s", got.Updates, local)
	}
}
