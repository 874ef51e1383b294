package kernel_test

import (
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// TestCloneAllocs gates the cost of Kernel.Clone on every release's
// booted kernel. The boot image's kallsyms is shared, not copied, so a
// clone's allocations do not grow with the number of symbols.
func TestCloneAllocs(t *testing.T) {
	for _, v := range cvedb.Versions {
		k, err := kernel.Boot(cvedb.Tree(v))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := k.Clone(); err != nil {
				t.Fatal(err)
			}
		})
		if got > 60 {
			t.Errorf("%s: Kernel.Clone = %.0f allocs/op, want <= 60", v, got)
		}
	}
}
