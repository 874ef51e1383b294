package srctree

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/obj"
	"gosplice/internal/store"
)

// cacheFiles returns a fresh copy of the unit-cache tests' source files.
func cacheFiles() map[string]string {
	return map[string]string{
		"defs.h":  "#define LIMIT 4\nint helper(int x);\n",
		"deep.h":  "#include \"defs.h\"\n#define DEEP 1\n",
		"a.mc":    "#include \"deep.h\"\nint entry(int x) { return helper(x) + LIMIT + DEEP; }\n",
		"b.mc":    "int helper(int x) { return x * 2; }\n",
		"c.mc":    "int lone(void) { return 9; }\n",
		"asm.mcs": ".global araw\n.func araw\n ret\n.endfunc\n",
	}
}

// cacheTree returns a tree whose versions differ only in content, so
// unit-cache keys depend purely on file bytes and options.
func cacheTree(version string) *Tree { return New(version, cacheFiles()) }

// objBytes returns an object file's SOF serialization: two objects are
// equivalent exactly when their serializations are equal.
func objBytes(t testing.TB, f *obj.File) string {
	t.Helper()
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// useFreshStore installs an empty memory store for the rest of the test,
// so every compile and link it makes really runs.
func useFreshStore(t testing.TB) {
	prev := SetStore(store.MustNew(store.Options{}))
	t.Cleanup(func() { SetStore(prev) })
}

// TestUnitCacheSharesUnchangedUnits: building a patched tree recompiles
// only the units the patch reaches; every other object is the same
// pointer as in the base build, and the recompiled object matches a
// fresh uncached compile byte for byte (never served stale).
func TestUnitCacheSharesUnchangedUnits(t *testing.T) {
	opts := codegen.KspliceBuild()
	base := cacheTree("v-cache-share")
	br1, err := build(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	files := cacheFiles()
	files["b.mc"] = "int helper(int x) { return x * 3; }\n"
	patched := New("v-cache-share", files)
	br2, err := build(patched, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range base.Units() {
		o1, o2 := br1.Object(path), br2.Object(path)
		if path == "b.mc" {
			if o1 == o2 {
				t.Errorf("%s: patched unit served from cache", path)
			}
			if objBytes(t, o1) == objBytes(t, o2) {
				t.Errorf("%s: patched unit compiled to identical object", path)
			}
			// The recompiled object must agree with an uncached compile
			// of the patched source — the no-stale-objects guarantee.
			fresh, err := BuildUnit(patched, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if objBytes(t, o2) != objBytes(t, fresh) {
				t.Errorf("%s: cached compile differs from fresh compile", path)
			}
			continue
		}
		if o1 != o2 {
			t.Errorf("%s: unchanged unit not shared (distinct objects)", path)
		}
	}
}

// TestUnitCacheHeaderInvalidation: editing a header recompiles every unit
// whose include closure reaches it — including transitively — and leaves
// the rest shared.
func TestUnitCacheHeaderInvalidation(t *testing.T) {
	opts := codegen.KspliceBuild()
	base := cacheTree("v-cache-hdr")
	br1, err := build(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	files := cacheFiles()
	files["defs.h"] = "#define LIMIT 5\nint helper(int x);\n"
	patched := New("v-cache-hdr", files)
	br2, err := build(patched, opts)
	if err != nil {
		t.Fatal(err)
	}
	// a.mc reaches defs.h through deep.h; b.mc, c.mc, asm.mcs do not.
	if br1.Object("a.mc") == br2.Object("a.mc") {
		t.Error("a.mc shared across a header edit it includes transitively")
	}
	for _, path := range []string{"b.mc", "c.mc", "asm.mcs"} {
		if br1.Object(path) != br2.Object(path) {
			t.Errorf("%s: recompiled though its include closure is unchanged", path)
		}
	}
}

// TestUnitCacheKeySensitivity: the same source under different codegen
// options must miss — both option fields are part of the key.
func TestUnitCacheKeySensitivity(t *testing.T) {
	// A fresh store: the variants include KernelBuild, under which other
	// tests compile the same sources.
	useFreshStore(t)
	tree := cacheTree("v-cache-key")
	optA := codegen.KspliceBuild()
	if _, err := build(tree, optA); err != nil {
		t.Fatal(err)
	}

	c0 := Counters()
	if _, err := build(tree, optA); err != nil {
		t.Fatal(err)
	}
	c1 := Counters()
	units := uint64(len(tree.Units()))
	if hits := c1.UnitHits - c0.UnitHits; hits != units {
		t.Errorf("rebuild with identical options: %d unit hits, want %d", hits, units)
	}

	// Vary each option field in turn; every variant must miss every unit.
	variants := []codegen.Options{}
	o := optA
	o.ObjectSections = !o.ObjectSections
	variants = append(variants, o)
	o = optA
	o.Inline = !o.Inline
	variants = append(variants, o)
	for i, v := range variants {
		c0 = Counters()
		if _, err := build(tree, v); err != nil {
			t.Fatal(err)
		}
		c1 = Counters()
		if hits := c1.UnitHits - c0.UnitHits; hits != 0 {
			t.Errorf("variant %d (%s): %d unit hits, want 0 (cross-option cache hit)", i, v.CacheKey(), hits)
		}
		if misses := c1.UnitMisses - c0.UnitMisses; misses != units {
			t.Errorf("variant %d (%s): %d unit misses, want %d", i, v.CacheKey(), misses, units)
		}
	}
}

// TestUnitCacheConcurrentBuilds hammers the cache from many goroutines —
// same tree, patched variants, both option sets — and checks every
// resulting object agrees with a fresh uncached compile. Run under -race
// this is the data-race soak for the unit cache.
func TestUnitCacheConcurrentBuilds(t *testing.T) {
	variant := func(i int) *Tree {
		files := cacheFiles()
		files["c.mc"] = fmt.Sprintf("int lone(void) { return %d; }\n", i)
		return New("v-cache-race", files)
	}
	allOpts := []codegen.Options{codegen.KernelBuild(), codegen.KspliceBuild()}

	const workers = 16
	var wg sync.WaitGroup
	results := make([]*BuildResult, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = build(variant(w%4), allOpts[w%2])
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		want, err := build(variant(w%4), allOpts[w%2])
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range results[w].Objects {
			if objBytes(t, f) != objBytes(t, want.Objects[i]) {
				t.Errorf("worker %d: object %s differs from deterministic rebuild", w, f.SourcePath)
			}
		}
	}
}

// TestScanIncludes: the dependency scanner reads #include "path" lines,
// tolerates whitespace, and over-approximates conditional inclusion.
func TestScanIncludes(t *testing.T) {
	src := strings.Join([]string{
		`#include "a.h"`,
		`  #  include "spaced.h"`,
		`#ifdef NEVER`,
		`#include "conditional.h"`,
		`#endif`,
		`// #include "commented.h" (not scanned: the line starts with //)`,
		`#define X 1`,
		`int f(void) { return 0; }`,
	}, "\n")
	got := scanIncludes(src)
	want := []string{"a.h", "spaced.h", "conditional.h"}
	if len(got) != len(want) {
		t.Fatalf("scanIncludes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scanIncludes[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCacheCountersSub: a delta subtracts every counter, the store's
// included, and keeps the later snapshot's memory-tier gauges.
func TestCacheCountersSub(t *testing.T) {
	b := CacheCounters{UnitHits: 1, LinkMisses: 2, Store: store.Stats{DiskWrites: 3, MemBytes: 100, MemEntries: 10}}
	c := CacheCounters{UnitHits: 5, LinkMisses: 2, Store: store.Stats{DiskWrites: 7, MemBytes: 40, MemEntries: 4}}
	want := CacheCounters{UnitHits: 4, Store: store.Stats{DiskWrites: 4, MemBytes: 40, MemEntries: 4}}
	if got := c.Sub(b); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}
