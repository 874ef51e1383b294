package eval

import (
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// TestCrossReleaseUnitSharing: unit cache keys hash content, not tree
// identity, so building a second corpus release after the first hits the
// store for every unit whose source and include closure the releases
// share — the artifact crosses release trees.
func TestCrossReleaseUnitSharing(t *testing.T) {
	defer srctree.SetStore(srctree.SetStore(store.MustNew(store.Options{})))
	opts := codegen.KernelBuild()
	if _, err := srctree.BuildCached(cvedb.Tree(cvedb.Versions[0]), opts); err != nil {
		t.Fatal(err)
	}
	c0 := srctree.Counters()
	if _, err := srctree.BuildCached(cvedb.Tree(cvedb.Versions[1]), opts); err != nil {
		t.Fatal(err)
	}
	c1 := srctree.Counters()
	hits := c1.UnitHits - c0.UnitHits
	misses := c1.UnitMisses - c0.UnitMisses
	if hits == 0 {
		t.Errorf("building %s after %s: no cross-release unit hits (%d misses)",
			cvedb.Versions[1], cvedb.Versions[0], misses)
	}
	t.Logf("%s after %s: %d units shared, %d recompiled", cvedb.Versions[1], cvedb.Versions[0], hits, misses)
}

// TestEvalDiskWarmStart: an evaluation run over a fresh store on a
// directory a previous run populated — ksplice-eval restarted — serves
// every unit compile and kernel link from the disk tier, recompiling and
// relinking nothing, and reports the same results.
func TestEvalDiskWarmStart(t *testing.T) {
	ids := map[string]bool{}
	version := cvedb.Versions[0]
	for i, c := range cvedb.ForVersion(version) {
		if i < 2 {
			ids[c.ID] = true
		}
	}
	if len(ids) < 2 {
		t.Skipf("release %s has %d patches, need 2+", version, len(ids))
	}
	dir := t.TempDir()
	defer srctree.SetStore(srctree.ActiveStore())
	if err := srctree.UseDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	res1, err := Run(Options{Only: ids, StressRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cache.Store.DiskWrites == 0 {
		t.Fatalf("cold run wrote nothing to the disk tier: %+v", res1.Cache)
	}

	if err := srctree.UseDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(Options{Only: ids, StressRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := res2.Cache
	if c.UnitDiskHits == 0 {
		t.Errorf("warm run never hit the disk tier: %+v", c)
	}
	if c.UnitMisses != 0 {
		t.Errorf("warm run recompiled %d units, want 0: %+v", c.UnitMisses, c)
	}
	if c.LinkDiskHits == 0 {
		t.Errorf("warm run relinked instead of loading the image: %+v", c)
	}
	if c.Store.DiskErrors != 0 {
		t.Errorf("warm run saw %d disk errors", c.Store.DiskErrors)
	}
	if got, want := res2.Headline(), res1.Headline(); got != want {
		t.Errorf("warm-start run changed the headline:\ncold: %swarm: %s", want, got)
	}
}
