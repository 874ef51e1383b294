package core_test

import (
	"runtime"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// TestWarmCreateAllocs gates the cost of a create over a warm store. On
// each release one create warms the store, then a second CVE's create
// is measured: its pre build is memoized, so it pays for compiling the
// units its patch reaches and for keying the patched tree. The patched
// tree answers from the release tree every key the patch cannot have
// changed, and the post build looks up every unit it does not compile
// under a store key memoized with the unit's key, on the caller's
// goroutine; the parser pulls its tokens from the lexer instead of a
// token slice. So the count follows the patch, not the size of the
// tree: re-keying every unit and re-hashing every file took about 650
// more allocations per create, and a store key per unit, a goroutine
// per CPU and a token slice per compiled unit about 390 more.
func TestWarmCreateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer srctree.SetStore(srctree.ActiveStore())
	const runs, ceiling = 5, 2080
	var total uint64
	for _, v := range cvedb.Versions {
		cves := cvedb.ForVersion(v)
		warm, measured := cves[0], cves[1]
		tree := cvedb.Tree(v)
		create := func(c *cvedb.CVE, patch string) {
			if _, err := core.CreateUpdate(tree, patch, core.CreateOptions{Name: c.ID}); err != nil {
				t.Fatalf("%s: %v", c.ID, err)
			}
		}
		warmPatch, patch := warm.Patch(), measured.Patch()
		var allocs uint64
		for range runs {
			srctree.SetStore(store.MustNew(store.Options{}))
			create(warm, warmPatch)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			create(measured, patch)
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
		}
		allocs /= runs
		t.Logf("%s: %s after %s: %d allocs", v, measured.ID, warm.ID, allocs)
		total += allocs
	}
	if total > ceiling {
		t.Errorf("the %d measured creates take %d allocs in all, want <= %d", len(cvedb.Versions), total, ceiling)
	}
}
