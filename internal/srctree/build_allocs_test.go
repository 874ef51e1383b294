package srctree_test

import (
	"fmt"
	"runtime"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/cvedb"
	"gosplice/internal/diffutil"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// TestIncrementalBuildAllocs gates BuildCached of a corpus tree in which
// one unit changed since a build of its parent: the post build of a
// create. The changed unit compiles; each of the other 73 costs a memory
// lookup under a store key its unit key memoizes, made on the caller's
// goroutine. Making each unit's store key again (about five allocations
// apiece) takes the count to about 760.
func TestIncrementalBuildAllocs(t *testing.T) {
	defer srctree.SetStore(srctree.SetStore(store.MustNew(store.Options{})))
	const unit, runs, ceiling = "drivers/dst_ca.mc", 20, 430
	base := cvedb.Tree(cvedb.Versions[0])
	src, ok := base.File(unit)
	if !ok {
		t.Fatalf("corpus tree lacks %s", unit)
	}
	opts := codegen.KernelBuild()
	if _, err := srctree.BuildCached(base, opts); err != nil {
		t.Fatal(err)
	}
	var allocs uint64
	for i := range runs {
		tree, err := base.Patch(diffutil.DiffFiles(unit, src, src+fmt.Sprintf("// rev %d\n", i)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := srctree.BuildCached(tree, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	allocs /= runs
	t.Logf("BuildCached with %s changed: %d allocs", unit, allocs)
	if allocs > ceiling {
		t.Errorf("BuildCached with %s changed: %d allocs, want <= %d", unit, allocs, ceiling)
	}
}
