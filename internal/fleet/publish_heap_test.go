package fleet

import (
	"path/filepath"
	"runtime"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
	"gosplice/internal/store"
)

// TestPublishChannelLiveHeap pins what publishing the four release
// channels leaves live. The artifact store keeps each step's post build,
// and with it that build's tree and the tree's parents. The publisher
// goes on from that same post tree, so each step keeps one tree alive;
// patching its own tree a second time kept two, about 350 KiB more.
func TestPublishChannelLiveHeap(t *testing.T) {
	defer srctree.SetStore(srctree.SetStore(store.MustNew(store.Options{})))
	const ceilingKiB = 1100
	for _, v := range cvedb.Versions {
		cvedb.Tree(v)
		for _, c := range cvedb.ForVersion(v) {
			c.Patch()
		}
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, v := range cvedb.Versions {
		if err := PublishChannel(filepath.Join(dir, v), v, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / 1024
	t.Logf("publishing %d release channels left %d KiB live", len(cvedb.Versions), live)
	if live > ceilingKiB {
		t.Errorf("publishing %d release channels left %d KiB live, want <= %d", len(cvedb.Versions), live, ceilingKiB)
	}
}
