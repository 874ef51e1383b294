package kernel_test

import (
	"runtime"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// TestCloneAllocs gates the cost of Kernel.Clone on every release's
// booted kernel. The boot image's kallsyms, the trap entry point and the
// stop_machine counters are shared, not rebuilt, and memory is cloned as
// one table of page pointers, so a clone's cost grows with neither the
// number of symbols nor the number of pages it will touch.
func TestCloneAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, v := range cvedb.Versions {
		k, err := kernel.Boot(cvedb.Tree(v))
		if err != nil {
			t.Fatal(err)
		}
		clone := func() {
			if _, err := k.Clone(); err != nil {
				t.Fatal(err)
			}
		}
		clone()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			clone()
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		if allocs > 16 || bytes > 40<<10 {
			t.Errorf("%s: Kernel.Clone = %d allocs/op and %d B/op, want <= 16 and <= %d", v, allocs, bytes, 40<<10)
		}
	}
}
