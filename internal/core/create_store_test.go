package core

import (
	"bytes"
	"errors"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// TestCreateUpdateDeterministicAcrossDiskStore is the persistence
// counterpart of TestCreateUpdateDeterministicAcrossUnitCache: for every
// corpus patch, the update created by a process warm-starting from the
// disk tier (fresh store, populated directory) must be byte-identical to
// the one created cold — and the warm pass must compile nothing at all,
// since the cold pass already persisted every pre and post unit.
func TestCreateUpdateDeterministicAcrossDiskStore(t *testing.T) {
	dir := t.TempDir()
	defer srctree.SetStore(srctree.SetStore(store.MustNew(store.Options{Dir: dir})))
	createTar := func(c *cvedb.CVE) ([]byte, error) {
		u, err := CreateUpdate(cvedb.Tree(c.Version), c.Patch(), CreateOptions{Name: "dsk-" + c.ID})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := u.WriteTar(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}

	cold := map[string][]byte{}
	coldErrs := map[string]error{}
	for _, c := range cvedb.All() {
		cold[c.ID], coldErrs[c.ID] = createTar(c)
	}

	// A fresh store over the same directory is a new ksplice-create
	// process: memory tier empty, disk tier warm.
	srctree.SetStore(store.MustNew(store.Options{Dir: dir}))
	c0 := srctree.Counters()
	for _, c := range cvedb.All() {
		warm, err := createTar(c)
		if (err == nil) != (coldErrs[c.ID] == nil) {
			t.Fatalf("%s: cold err = %v, warm err = %v", c.ID, coldErrs[c.ID], err)
		}
		if err != nil {
			if !errors.Is(err, ErrNoChanges) || !errors.Is(coldErrs[c.ID], ErrNoChanges) {
				t.Fatalf("%s: unexpected create failure: %v / %v", c.ID, coldErrs[c.ID], err)
			}
			continue
		}
		if !bytes.Equal(warm, cold[c.ID]) {
			t.Errorf("%s: update bytes differ between disk-cold and disk-warm create (%d vs %d bytes)",
				c.ID, len(cold[c.ID]), len(warm))
		}
	}
	c1 := srctree.Counters()
	if misses := c1.UnitMisses - c0.UnitMisses; misses != 0 {
		t.Errorf("disk-warm corpus pass recompiled %d units, want 0", misses)
	}
	if hits := c1.UnitDiskHits - c0.UnitDiskHits; hits == 0 {
		t.Error("disk-warm corpus pass never read the disk tier")
	}
	if errs := c1.Store.DiskErrors; errs != 0 {
		t.Errorf("disk-warm corpus pass saw %d disk errors", errs)
	}
}
