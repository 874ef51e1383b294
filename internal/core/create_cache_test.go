package core

import (
	"bytes"
	"errors"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// TestCreateUpdateDeterministicAcrossUnitCache is the determinism guard
// for the artifact store: for every corpus patch, the serialized update
// created from an empty store (cold: every pre unit and every unit the
// patch reaches really compiles) must be byte-identical to the one
// created again over the now-warm store (both builds served whole, no
// compile at all). It mirrors the worker-count determinism test of the
// evaluation pipeline: caching is an optimization, never a semantic
// input.
func TestCreateUpdateDeterministicAcrossUnitCache(t *testing.T) {
	defer srctree.SetStore(srctree.ActiveStore())
	createTar := func(c *cvedb.CVE) ([]byte, error) {
		u, err := CreateUpdate(cvedb.Tree(c.Version), c.Patch(), CreateOptions{Name: "det-" + c.ID})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := u.WriteTar(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	for _, c := range cvedb.All() {
		srctree.SetStore(store.MustNew(store.Options{}))
		cold, coldErr := createTar(c)
		c0 := srctree.Counters()
		warm, warmErr := createTar(c)
		if n := srctree.Counters().UnitMisses - c0.UnitMisses; n != 0 {
			t.Errorf("%s: warm create compiled %d units, want 0", c.ID, n)
		}
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("%s: warm store err = %v, cold store err = %v", c.ID, warmErr, coldErr)
		}
		if warmErr != nil {
			// Both paths must fail identically (e.g. a comment-only patch
			// is ErrNoChanges either way).
			if !errors.Is(warmErr, ErrNoChanges) || !errors.Is(coldErr, ErrNoChanges) {
				t.Fatalf("%s: unexpected create failure: %v / %v", c.ID, warmErr, coldErr)
			}
			continue
		}
		if !bytes.Equal(warm, cold) {
			t.Errorf("%s: update bytes differ between cold-store and warm-store create (%d vs %d bytes)",
				c.ID, len(cold), len(warm))
		}
	}
}
