package srctree

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/store"
)

// keysMatchFresh checks that a patched tree's units, unit keys and hash
// equal those of a parentless tree of the same files.
func keysMatchFresh(t *testing.T, tr *Tree) {
	t.Helper()
	fresh := New(tr.Version(), tr.files)
	if !slices.Equal(tr.Units(), fresh.Units()) {
		t.Errorf("units %v, fresh tree %v", tr.Units(), fresh.Units())
	}
	if tr.Hash() != fresh.Hash() {
		t.Errorf("hash %.12s, fresh tree %.12s", tr.Hash(), fresh.Hash())
	}
	for _, u := range fresh.Units() {
		got, want := tr.unitKey(u), fresh.unitKey(u)
		if got.hash != want.hash || !slices.Equal(got.closure, want.closure) {
			t.Errorf("%s: key %.12s closure %v, fresh tree %.12s closure %v", u, got.hash, got.closure, want.hash, want.closure)
		}
	}
}

// warmKeys computes every key of tr, so a child's inherited answers come
// from memos rather than fresh walks.
func warmKeys(tr *Tree) {
	tr.Hash()
	for _, u := range tr.Units() {
		tr.unitKey(u)
	}
}

func mustPatch(t *testing.T, tr *Tree, patch string) *Tree {
	t.Helper()
	child, err := tr.Patch(patch)
	if err != nil {
		t.Fatal(err)
	}
	return child
}

// TestPatchCreatesIncludedHeader: a unit that includes a header the tree
// lacks is keyed by that absence, so a patch creating the header re-keys
// the unit; the child recomputes that key alone.
func TestPatchCreatesIncludedHeader(t *testing.T) {
	files := cacheFiles()
	files["gen.mc"] = "#include \"gen.h\"\nint gen(void) { return 1; }\n"
	base := New("v-keys-create", files)
	warmKeys(base)
	if c := base.unitKey("gen.mc").closure; !slices.Equal(c, []string{"gen.mc", "gen.h"}) {
		t.Fatalf("gen.mc closure %v, want the missing gen.h in it", c)
	}
	child := mustPatch(t, base, "--- /dev/null\n+++ b/gen.h\n@@ -0,0 +1,1 @@\n+#define GEN 2\n")
	keysMatchFresh(t, child)
	if child.unitKey("gen.mc").hash == base.unitKey("gen.mc").hash {
		t.Error("gen.mc kept its key after the header it includes was created")
	}
	for _, u := range []string{"a.mc", "b.mc", "c.mc", "asm.mcs"} {
		if child.unitKey(u) != base.unitKey(u) {
			t.Errorf("%s: recomputed, want the parent's key", u)
		}
	}
	if len(child.unitKeys) != 1 || len(child.fileKeys) != 1 {
		t.Errorf("child memoizes %d unit and %d file keys, want 1 and 1 (only what the patch touched)", len(child.unitKeys), len(child.fileKeys))
	}
}

// TestPatchDeletesIncludedFile: deleting a header re-keys every unit
// that reaches it, transitively, and leaves the others inherited.
func TestPatchDeletesIncludedFile(t *testing.T) {
	base := cacheTree("v-keys-delete")
	warmKeys(base)
	child := mustPatch(t, base, "--- a/defs.h\n+++ /dev/null\n@@ -1,2 +0,0 @@\n-#define LIMIT 4\n-int helper(int x);\n")
	if _, ok := child.File("defs.h"); ok {
		t.Fatal("defs.h survived its deletion")
	}
	keysMatchFresh(t, child)
	if child.unitKey("a.mc").hash == base.unitKey("a.mc").hash {
		t.Error("a.mc kept its key after a header it reaches was deleted")
	}
	if child.unitKey("b.mc") != base.unitKey("b.mc") {
		t.Error("b.mc recomputed, want the parent's key")
	}
}

// TestPatchChainKeys: each tree of a three-deep Patch chain keys like a
// parentless tree, and a unit the later patches do not reach keeps the
// key the first patch's tree computed.
func TestPatchChainKeys(t *testing.T) {
	base := cacheTree("v-keys-chain")
	warmKeys(base)
	p1 := mustPatch(t, base, "--- a/b.mc\n+++ b/b.mc\n@@ -1,1 +1,1 @@\n-int helper(int x) { return x * 2; }\n+int helper(int x) { return x * 3; }\n")
	p2 := mustPatch(t, p1, "--- a/defs.h\n+++ b/defs.h\n@@ -1,1 +1,1 @@\n-#define LIMIT 4\n+#define LIMIT 5\n")
	p3 := mustPatch(t, p2, "--- /dev/null\n+++ b/d.mc\n@@ -0,0 +1,1 @@\n+int added(void) { return 4; }\n"+
		"--- a/c.mc\n+++ b/c.mc\n@@ -1,1 +1,1 @@\n-int lone(void) { return 9; }\n+int lone(void) { return 10; }\n")
	for i, tr := range []*Tree{p1, p2, p3} {
		t.Run(fmt.Sprintf("depth%d", i+1), func(t *testing.T) { keysMatchFresh(t, tr) })
	}
	if p3.unitKey("b.mc") != p1.unitKey("b.mc") {
		t.Error("b.mc: depth 3 recomputed the key depth 1 holds")
	}
	if p3.unitKey("a.mc") != p2.unitKey("a.mc") || p2.unitKey("a.mc") == base.unitKey("a.mc") {
		t.Error("a.mc: want the key depth 2 recomputed for its defs.h edit, inherited by depth 3")
	}
	if p3.unitKey("asm.mcs") != base.unitKey("asm.mcs") {
		t.Error("asm.mcs: no patch reaches it, want the root's key")
	}
}

// TestConcurrentBuildOfOnePatchedTree: parallel builds and hashes of one
// patched tree, whose parent has computed no key yet, agree with a
// parentless tree's build. Run under -race this is the soak for the
// memo lock.
func TestConcurrentBuildOfOnePatchedTree(t *testing.T) {
	useFreshStore(t)
	files := cacheFiles()
	for i := 0; i < 12; i++ {
		files[fmt.Sprintf("gen%02d.mc", i)] = fmt.Sprintf("#include \"deep.h\"\nint gen%d(void) { return %d + DEEP; }\n", i, i)
	}
	base := New("v-keys-race", files)
	post := mustPatch(t, base, "--- a/deep.h\n+++ b/deep.h\n@@ -2,1 +2,1 @@\n-#define DEEP 1\n+#define DEEP 2\n")
	opts := codegen.KspliceBuild()

	const workers = 8
	results := make([]*BuildResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				results[w], errs[w] = BuildCached(post, opts)
			} else {
				post.Hash()
				results[w], errs[w] = build(post, opts)
			}
		}()
	}
	wg.Wait()
	want, err := build(New(post.Version(), post.files), opts)
	if err != nil {
		t.Fatal(err)
	}
	for w, br := range results {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, f := range br.Objects {
			if f != want.Objects[i] {
				t.Errorf("worker %d: %s is not the object a parentless tree's build shares", w, f.SourcePath)
			}
		}
	}
	keysMatchFresh(t, post)
}

// TestStoreKeysShareAcrossLineageAndOptions builds a tree and its
// patched child under both build options from several goroutines at
// once: the child's inherited unit keys, with their memoized store
// keys, are shared with the parent. Every memoized store key must equal
// the one store.Key derives, under -race too.
func TestStoreKeysShareAcrossLineageAndOptions(t *testing.T) {
	useFreshStore(t)
	base := cacheTree("v-store-keys")
	post := mustPatch(t, base, "--- a/b.mc\n+++ b/b.mc\n@@ -1,1 +1,1 @@\n-int helper(int x) { return x * 2; }\n+int helper(int x) { return x * 5; }\n")
	options := []codegen.Options{codegen.KernelBuild(), codegen.KspliceBuild()}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = BuildCached([]*Tree{base, post}[w%2], options[w/2%2])
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for _, tr := range []*Tree{base, post} {
		for _, u := range tr.Units() {
			uk := tr.unitKey(u)
			for _, o := range options {
				if got, want := uk.storeKey(o.CacheKey()), store.Key("unit", uk.hash, o.CacheKey()); got != want {
					t.Errorf("%s: store key %s under %s, want %s", u, got, o.CacheKey(), want)
				}
			}
		}
	}
}
