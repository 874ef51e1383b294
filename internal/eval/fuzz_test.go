package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/diffutil"
	"gosplice/internal/kernel"
)

// TestRandomizedPatchPipeline is a whole-pipeline property test: random
// harmless patches (rewriting accumulator constants inside the corpus
// files' padding functions) are generated, converted to hot updates,
// applied, and undone. The properties:
//
//  1. every generated patch survives create -> run-pre -> apply -> undo;
//  2. while a random patch is applied, every *other* function's behaviour
//     is untouched (probes of unrelated CVEs still report their
//     vulnerable results);
//  3. after undo, the touched file behaves exactly as before.
func TestRandomizedPatchPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	version := cvedb.Versions[3]
	tree := cvedb.Tree(version)
	k, err := kernel.Boot(tree)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)

	// Units with padding functions (they contain "acc += NNN;" lines),
	// in Units' sorted order so the RNG is deterministic.
	var candidates []string
	for _, path := range tree.Units() {
		if src, _ := tree.File(path); strings.Contains(src, "_stats(int x)") {
			candidates = append(candidates, path)
		}
	}
	if len(candidates) < 10 {
		t.Fatalf("only %d padding files", len(candidates))
	}

	// Baseline probe results for a sample of CVEs.
	sample := cvedb.ForVersion(version)[:6]
	baseline := map[string]int64{}
	for _, c := range sample {
		v, _, err := runGuest(k, c.Probe.Entry, c.Probe.UID, c.Probe.Args...)
		if err != nil {
			t.Fatal(err)
		}
		baseline[c.ID] = v
	}

	iterations := 8
	if testing.Short() {
		iterations = 2
	}
	for i := 0; i < iterations; i++ {
		path := candidates[rng.Intn(len(candidates))]
		src, _ := tree.File(path)
		patched, changed := mutateStats(src, rng)
		if changed == 0 {
			continue
		}
		patch := diffutil.DiffFiles(path, src, patched)
		u, err := core.CreateUpdate(tree, patch, core.CreateOptions{Name: fmt.Sprintf("fuzz-%d", i)})
		if err != nil {
			t.Fatalf("iter %d (%s): create: %v", i, path, err)
		}
		if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
			t.Fatalf("iter %d (%s): apply: %v", i, path, err)
		}
		// Unrelated behaviour is untouched while the patch is live.
		for _, c := range sample {
			if _, owns := c.Files[path]; owns {
				continue
			}
			v, _, err := runGuest(k, c.Probe.Entry, c.Probe.UID, c.Probe.Args...)
			if err != nil {
				t.Fatalf("iter %d: %s probe: %v", i, c.ID, err)
			}
			if v != baseline[c.ID] {
				t.Errorf("iter %d: patching %s changed %s's probe %d -> %d",
					i, path, c.ID, baseline[c.ID], v)
			}
		}
		if err := mgr.Undo(core.ApplyOptions{}); err != nil {
			t.Fatalf("iter %d (%s): undo: %v", i, path, err)
		}
	}

	// After all cycles, the kernel is byte-for-byte back to baseline
	// behaviour.
	for _, c := range sample {
		v, _, err := runGuest(k, c.Probe.Entry, c.Probe.UID, c.Probe.Args...)
		if err != nil {
			t.Fatal(err)
		}
		if v != baseline[c.ID] {
			t.Errorf("%s: post-fuzz probe %d, baseline %d", c.ID, v, baseline[c.ID])
		}
	}
	if bad, err := k.Call("stress_main", 50); err != nil || bad != 0 {
		t.Errorf("stress after fuzzing: %d, %v", bad, err)
	}
}

// mutateStats rewrites a random subset of "acc += N;" lines.
func mutateStats(src string, rng *rand.Rand) (string, int) {
	lines := strings.Split(src, "\n")
	changed := 0
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "acc += ") && strings.HasSuffix(trimmed, ";") && rng.Intn(3) == 0 {
			lines[i] = fmt.Sprintf("\tacc += %d;", 50000+rng.Intn(10000))
			changed++
		}
	}
	return strings.Join(lines, "\n"), changed
}
