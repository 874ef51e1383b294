package srctree

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// TestUnitCacheDiskWarmStart: a build served by a fresh store over a
// previously-populated cache directory — the cold-process case — must
// recompile nothing: every unit comes off the disk tier, and the decoded
// objects are byte-identical to the originals.
func TestUnitCacheDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	defer SetStore(SetStore(store.MustNew(store.Options{Dir: dir})))
	opts := codegen.KspliceBuild()
	tree := cacheTree("v-disk-warm")
	br1, err := build(tree, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory simulates a new process: the
	// memory tier is empty, the disk tier is warm.
	SetStore(store.MustNew(store.Options{Dir: dir}))
	c0 := Counters()
	br2, err := build(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Counters()
	units := uint64(len(tree.Units()))
	if got := c1.UnitDiskHits - c0.UnitDiskHits; got != units {
		t.Errorf("cold-process build: %d disk hits, want %d", got, units)
	}
	if got := c1.UnitMisses - c0.UnitMisses; got != 0 {
		t.Errorf("cold-process build recompiled %d units, want 0", got)
	}
	for i, f := range br2.Objects {
		if objBytes(t, f) != objBytes(t, br1.Objects[i]) {
			t.Errorf("%s: disk round trip changed the object", f.SourcePath)
		}
	}
}

// TestLinkCacheDiskWarmStart: linked kernel images persist to the disk
// tier, so a fresh store over the same directory serves the link without
// relinking — the warm-start every state-replaying tool relies on.
func TestLinkCacheDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	defer SetStore(SetStore(store.MustNew(store.Options{Dir: dir})))
	opts := codegen.KernelBuild()
	tree := cacheTree("v-disk-link")
	const base = 0x100000
	br1, err := BuildCached(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	im1, err := LinkKernelCached(br1, base)
	if err != nil {
		t.Fatal(err)
	}

	SetStore(store.MustNew(store.Options{Dir: dir}))
	// The build memo is memory-only by design, so the cold process
	// reassembles the build from per-unit disk hits...
	br2, err := BuildCached(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	// ...but the image itself must come off disk, not be relinked.
	c0 := Counters()
	im2, err := LinkKernelCached(br2, base)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Counters()
	if got := c1.LinkDiskHits - c0.LinkDiskHits; got != 1 {
		t.Errorf("cold-process link: %d disk hits, want 1", got)
	}
	if got := c1.LinkMisses - c0.LinkMisses; got != 0 {
		t.Errorf("cold-process link relinked %d times, want 0", got)
	}
	if !bytes.Equal(im1.Bytes, im2.Bytes) || im1.Base != im2.Base {
		t.Error("disk round trip changed the image bytes")
	}
	if !reflect.DeepEqual(im1.Symbols, im2.Symbols) {
		t.Error("disk round trip changed the image symbol table")
	}
}

// TestStoreEvictionUnderPressure: under a cap far smaller than one
// build's artifacts, the memory tier evicts continuously; builds, the
// build memo, and the link cache all stay correct — objects may stop
// being pointer-shared, but every artifact served equals a fresh
// compile. This is the safety property the LRU cap rests on.
func TestStoreEvictionUnderPressure(t *testing.T) {
	defer SetStore(SetStore(store.MustNew(store.Options{MaxBytes: 512})))
	opts := codegen.KspliceBuild()
	tree := cacheTree("v-evict")
	if _, err := build(tree, opts); err != nil {
		t.Fatal(err)
	}
	br, err := BuildCached(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinkKernelCached(br, 0x100000); err != nil {
		t.Fatal(err)
	}
	c := Counters()
	if c.Store.Evictions == 0 {
		t.Fatalf("512-byte cap never evicted: %+v", c.Store)
	}
	if c.Store.MemBytes > 512+uint64(fileMemSize(br.Objects[0])) {
		t.Errorf("memory tier resident %d bytes far exceeds the cap", c.Store.MemBytes)
	}
	// Rebuild under the same pressure: whatever mix of hits and
	// recompiles the evictions produce, the objects must equal fresh
	// uncached compiles.
	br2, err := build(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tree.Units() {
		fresh, err := BuildUnit(tree, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if objBytes(t, br2.Object(path)) != objBytes(t, fresh) {
			t.Errorf("%s: artifact served under eviction pressure differs from a fresh compile", path)
		}
	}
}

// TestBuildParallelDeterministic: the worker-pool build produces the
// same object list, in Units() order, for every worker count. Each
// count builds from an empty store, so every compile really runs.
func TestBuildParallelDeterministic(t *testing.T) {
	files := cacheFiles()
	for i := 0; i < 24; i++ {
		files[fmt.Sprintf("gen%02d.mc", i)] = fmt.Sprintf("int gen%d(void) { return %d; }\n", i, i)
	}
	tree := New("v-par", files)
	opts := codegen.KspliceBuild()
	units := tree.Units()

	var want *BuildResult
	for _, procs := range []int{1, 2, 8} {
		useFreshStore(t)
		old := runtime.GOMAXPROCS(procs)
		br, err := build(tree, opts)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i, f := range br.Objects {
			if f.SourcePath != units[i] {
				t.Fatalf("GOMAXPROCS=%d: object %d is %s, want %s (out of order)", procs, i, f.SourcePath, units[i])
			}
		}
		if want == nil {
			want = br
			continue
		}
		for i, f := range br.Objects {
			if objBytes(t, f) != objBytes(t, want.Objects[i]) {
				t.Errorf("GOMAXPROCS=%d: %s differs from the single-worker build", procs, f.SourcePath)
			}
		}
	}
}

// TestBuildParallelFirstError: when several units fail, every worker
// count reports the same error — the first failing unit's, in Units()
// order — so error output is reproducible too.
func TestBuildParallelFirstError(t *testing.T) {
	files := cacheFiles()
	files["a.mc"] = "int broken("
	files["c.mc"] = "int alsobroken("
	tree := New("v-par-err", files)
	opts := codegen.KspliceBuild()

	var want string
	for _, procs := range []int{1, 4} {
		useFreshStore(t)
		old := runtime.GOMAXPROCS(procs)
		_, err := build(tree, opts)
		runtime.GOMAXPROCS(old)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: build of broken tree succeeded", procs)
		}
		if want == "" {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Errorf("GOMAXPROCS=%d: error %q, want the sequential build's %q", procs, err, want)
		}
	}
}

// TestScrapedStoreCountersMonotonic: swapping the artifact store — as
// every tool's -cache-dir flag does — must not move any scraped store counter
// backwards. The process-wide /metrics sums every store ever made, not
// just the active one.
func TestScrapedStoreCountersMonotonic(t *testing.T) {
	defer SetStore(SetStore(store.MustNew(store.Options{})))
	if _, err := build(cacheTree("v-scrape-monotonic"), codegen.KspliceBuild()); err != nil {
		t.Fatal(err)
	}
	before := scrapeStoreCounters(t)
	if before[`gosplice_store_gets_total{outcome="miss"}`] == 0 {
		t.Fatalf("a cold build scraped no store misses: %v", before)
	}
	SetStore(store.MustNew(store.Options{}))
	after := scrapeStoreCounters(t)
	for id, v := range before {
		if after[id] < v {
			t.Errorf("%s went backwards across SetStore: %d -> %d", id, v, after[id])
		}
	}
}

// scrapeStoreCounters reads /metrics through the process-wide handler
// and returns every gosplice_store_* counter sample by id.
func scrapeStoreCounters(t *testing.T) map[string]uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	telemetry.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]uint64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "gosplice_store_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		id := line[:i]
		if name, _, _ := strings.Cut(id, "{"); !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("counter sample %q: %v", line, err)
		}
		out[id] = v
	}
	return out
}
