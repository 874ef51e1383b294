package cvedb

import (
	"strings"
	"testing"

	"gosplice/internal/diffutil"
	"gosplice/internal/kernel"
)

func TestCorpusShape(t *testing.T) {
	all := All()
	if len(all) != 64 {
		t.Fatalf("corpus size %d", len(all))
	}
	ids := map[string]bool{}
	var privesc, infoleak, dataSem, inline, explicit, ambig, exploits int
	for _, c := range all {
		if ids[c.ID] {
			t.Errorf("duplicate ID %s", c.ID)
		}
		ids[c.ID] = true
		switch c.Class {
		case PrivEsc:
			privesc++
		case InfoLeak:
			infoleak++
		}
		if c.DataSemantics {
			dataSem++
		}
		if c.InlineVictim {
			inline++
		}
		if c.ExplicitInline {
			explicit++
		}
		if c.AmbiguousSym {
			ambig++
		}
		if c.Exploit != nil {
			exploits++
		}
		if c.Probe.Entry == "" {
			t.Errorf("%s has no probe", c.ID)
		}
		found := false
		for _, v := range Versions {
			if c.Version == v {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has unknown version %q", c.ID, c.Version)
		}
	}
	// 56 of 64 need no new code (paper headline).
	if dataSem != 8 {
		t.Errorf("data-semantics patches: %d, want 8", dataSem)
	}
	// About two-thirds privilege escalation, one-third info disclosure.
	if privesc != 43 || infoleak != 21 {
		t.Errorf("classes: %d escalation / %d disclosure, want 43/21", privesc, infoleak)
	}
	// 20 of 64 patch a function inlined somewhere; only 4 say `inline`.
	if inline != 20 {
		t.Errorf("inline victims: %d, want 20", inline)
	}
	if explicit != 4 {
		t.Errorf("explicit inline: %d, want 4", explicit)
	}
	// 5 of 64 touch a function with an ambiguous symbol.
	if ambig != 5 {
		t.Errorf("ambiguous-symbol patches: %d, want 5", ambig)
	}
	// 4 exploit-verified.
	if exploits != 4 {
		t.Errorf("exploits: %d, want 4", exploits)
	}
}

func TestTable1(t *testing.T) {
	// The paper's Table 1: the eight patches needing new code.
	want := map[string]struct {
		reason string
		lines  int
	}{
		"CVE-2008-0007": {"changes data init", 34},
		"CVE-2007-4571": {"changes data init", 10},
		"CVE-2007-3851": {"changes data init", 1},
		"CVE-2006-5753": {"changes data init", 1},
		"CVE-2006-2071": {"changes data init", 14},
		"CVE-2006-1056": {"changes data init", 4},
		"CVE-2005-3179": {"changes data init", 20},
		"CVE-2005-2709": {"adds field to struct", 48},
	}
	var avg int
	for id, w := range want {
		c, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing from corpus", id)
		}
		if !c.DataSemantics {
			t.Errorf("%s not flagged data-semantics", id)
		}
		if c.Table1Reason != w.reason {
			t.Errorf("%s reason %q, want %q", id, c.Table1Reason, w.reason)
		}
		if got := c.NewCodeLines(); got != w.lines {
			t.Errorf("%s new code lines = %d, want %d", id, got, w.lines)
		}
		avg += c.NewCodeLines()
	}
	// "about 17 lines per patch, on average" (paper abstract): 132/8.
	if avg/len(want) != 16 && avg/len(want) != 17 {
		t.Errorf("average new code lines = %d.%d, want ~17", avg/len(want), avg%len(want))
	}
}

// figure3Buckets is the paper's Figure 3 histogram: patch counts per
// 5-line bucket (0-5, 5-10, ..., 75-80, >80).
var figure3Buckets = []int{35, 12, 6, 3, 2, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1}

// Figure3Histogram buckets the corpus by patch length.
func Figure3Histogram(all []*CVE) []int {
	buckets := make([]int, 17)
	for _, c := range all {
		loc := c.PatchLoC()
		idx := (loc - 1) / 5
		if loc > 80 || idx > 16 {
			idx = 16
		}
		buckets[idx]++
	}
	return buckets
}

func TestFigure3Histogram(t *testing.T) {
	got := Figure3Histogram(All())
	for i := range figure3Buckets {
		if got[i] != figure3Buckets[i] {
			t.Errorf("bucket %d (%d-%d lines): %d patches, want %d",
				i, i*5, (i+1)*5, got[i], figure3Buckets[i])
		}
	}
	// Headline shares: 35 of 64 within 5 lines, 53 within 15.
	if got[0] != 35 {
		t.Errorf("<=5 lines: %d, want 35", got[0])
	}
	if got[0]+got[1]+got[2] != 53 {
		t.Errorf("<=15 lines: %d, want 53", got[0]+got[1]+got[2])
	}
}

func TestPatchesParseAndApply(t *testing.T) {
	tree := Tree(Versions[0])
	for _, c := range All() {
		if _, err := tree.Patch(c.Patch()); err != nil {
			t.Errorf("%s: patch does not parse and apply: %v", c.ID, err)
		}
		if _, err := diffutil.ParsePatch(c.PlainPatch()); err != nil {
			t.Errorf("%s: plain patch does not parse: %v", c.ID, err)
		}
	}
}

func TestVulnerableKernelBootsAndProbes(t *testing.T) {
	k, err := kernel.Boot(Tree(Versions[0]))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if !strings.Contains(k.Console(), "kernel booted") {
		t.Fatalf("console: %q", k.Console())
	}
	for _, c := range All() {
		task, err := k.CallAsUser(c.Probe.UID, c.Probe.Entry, c.Probe.Args...)
		if err != nil {
			t.Errorf("%s: probe error: %v", c.ID, err)
			continue
		}
		if task.ExitCode != c.Probe.VulnResult {
			t.Errorf("%s: probe = %d, want vulnerable result %d", c.ID, task.ExitCode, c.Probe.VulnResult)
		}
	}
}

func TestExploitsWorkOnVulnerableKernel(t *testing.T) {
	k, err := kernel.Boot(Tree(Versions[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range All() {
		if c.Exploit == nil {
			continue
		}
		e := c.Exploit
		task, err := k.CallAsUser(e.UID, e.Entry)
		if err != nil {
			t.Errorf("%s: exploit error: %v", c.ID, err)
			continue
		}
		if task.ExitCode != e.WantVuln {
			t.Errorf("%s: exploit = %d, want %d", c.ID, task.ExitCode, e.WantVuln)
		}
		if e.EscalatesTo >= 0 && task.UID != e.EscalatesTo {
			t.Errorf("%s: exploit uid = %d, want escalation to %d", c.ID, task.UID, e.EscalatesTo)
		}
	}
}

func TestFixedKernelFlipsProbes(t *testing.T) {
	// Cold-boot spot check (the hot-update path is the eval's job): boot
	// the tree with the *published* fix applied — the way a rebooting
	// administrator would deploy it — and confirm the probes flip.
	picks := []string{
		"CVE-2005-2709", // shadow structs
		"CVE-2007-4573", // assembly
		"CVE-2005-4639", // ambiguous symbol
		"CVE-2006-2451", // exploit-verified
		"CVE-2005-4800", // generated: sign + ambiguous
		"CVE-2006-4809", // generated: inline leak
	}
	for _, id := range picks {
		c, ok := ByID(id)
		if !ok {
			t.Errorf("%s not in corpus", id)
			continue
		}
		fixed, err := Tree(c.Version).Patch(c.PlainPatch())
		if err != nil {
			t.Errorf("%s: fixed tree: %v", id, err)
			continue
		}
		k, err := kernel.Boot(fixed)
		if err != nil {
			t.Errorf("%s: fixed boot: %v", id, err)
			continue
		}
		// Hooks only run when an update is applied; on a cold boot of the
		// hot tree the init code is already fixed for init-function CVEs,
		// but declaration/shadow CVEs rely on the fixed declarations.
		task, err := k.CallAsUser(c.Probe.UID, c.Probe.Entry, c.Probe.Args...)
		if err != nil {
			t.Errorf("%s: fixed probe error: %v", id, err)
			continue
		}
		if task.ExitCode != c.Probe.FixedResult {
			t.Errorf("%s: fixed probe = %d, want %d", id, task.ExitCode, c.Probe.FixedResult)
		}
	}
}

func TestStressWorkloadHealthy(t *testing.T) {
	k, err := kernel.Boot(Tree(Versions[1]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Call("stress_main", 200)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("stress_main reported %d inconsistencies", got)
	}
}

func TestTreeDistinctVersions(t *testing.T) {
	for _, v := range Versions {
		tr := Tree(v)
		if tr.Version() != v {
			t.Errorf("tree version %q", tr.Version())
		}
		if Tree(v) != tr {
			t.Errorf("%s: a second Tree call assembled a second tree", v)
		}
		if len(tr.Units()) < 60 {
			t.Errorf("%s: only %d units", v, len(tr.Units()))
		}
	}
	// Version assignment covers all releases.
	seen := map[string]int{}
	for _, c := range All() {
		seen[c.Version]++
	}
	for _, v := range Versions {
		if seen[v] == 0 {
			t.Errorf("no CVEs assigned to %s", v)
		}
	}
}
