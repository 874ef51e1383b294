package srctree_test

import (
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
)

// TestCorpusPatchedKeysMatchFreshTree: for every corpus fix, the patched
// tree's keys — most of them answered by the release tree it was
// derived from — equal those of a parentless tree of the same files, so
// inheritance never serves a key the patch changed.
func TestCorpusPatchedKeysMatchFreshTree(t *testing.T) {
	for _, c := range cvedb.All() {
		base := cvedb.Tree(c.Version)
		post, err := base.Patch(c.Patch())
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		fresh := srctree.New(c.Version, srctree.FilesForTest(post))
		if post.Hash() != fresh.Hash() {
			t.Errorf("%s: patched tree hash %.12s, fresh tree %.12s", c.ID, post.Hash(), fresh.Hash())
		}
		changed := 0
		for _, u := range fresh.Units() {
			got, want := srctree.UnitKeyForTest(post, u), srctree.UnitKeyForTest(fresh, u)
			if got != want {
				t.Errorf("%s: %s: patched tree key %.12s, fresh tree %.12s", c.ID, u, got, want)
			}
			if _, inBase := base.File(u); !inBase || got != srctree.UnitKeyForTest(base, u) {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("%s: the patch changed no unit key", c.ID)
		}
	}
}
