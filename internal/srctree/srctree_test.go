package srctree

import (
	"strings"
	"testing"

	"gosplice/internal/codegen"
)

func sample() *Tree {
	return New("v1", map[string]string{
		"defs.h":   "#define LIMIT 4\nint helper(int x);\n",
		"a.mc":     "#include \"defs.h\"\nint entry(int x) { return helper(x) + LIMIT; }\n",
		"b.mc":     "int helper(int x) { return x * 2; }\n",
		"entry.s":  "not a unit (unknown extension)",
		"asm.mcs":  ".global araw\n.func araw\n ret\n.endfunc\n",
		"README":   "docs, not code",
		"sub/c.mc": "int subfn(void) { return 7; }\n",
	})
}

func TestUnitsSelection(t *testing.T) {
	tr := sample()
	units := tr.Units()
	want := []string{"a.mc", "asm.mcs", "b.mc", "sub/c.mc"}
	if len(units) != len(want) {
		t.Fatalf("units = %v", units)
	}
	for i := range want {
		if units[i] != want[i] {
			t.Errorf("units[%d] = %q, want %q", i, units[i], want[i])
		}
	}
}

func TestBuildAndLink(t *testing.T) {
	tr := sample()
	br, err := BuildCached(tr, codegen.KernelBuild())
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Objects) != 4 {
		t.Fatalf("objects: %d", len(br.Objects))
	}
	if br.Object("a.mc") == nil || br.Object("asm.mcs") == nil {
		t.Error("missing objects")
	}
	if br.Object("nope.mc") != nil {
		t.Error("phantom object")
	}
	im, err := LinkKernelCached(br, 0x100000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.LookupOne("entry"); err != nil {
		t.Error(err)
	}
	if _, err := im.LookupOne("araw"); err != nil {
		t.Error(err)
	}
}

// TestNewCopiesFiles: a tree owns a copy of the map it was made from,
// so a later edit to the caller's map changes neither its files nor its
// hash. Images are keyed by the tree's hash; this is what keeps a built
// tree's image from being served for edited content.
func TestNewCopiesFiles(t *testing.T) {
	files := map[string]string{"f.mc": "int f(void) { return 1; }\n"}
	tr := New("v-copy", files)
	hash := tr.Hash()
	files["f.mc"] = "int f(void) { return 2; }\n"
	files["g.mc"] = "int g(void) { return 3; }\n"
	if src, _ := tr.File("f.mc"); src != "int f(void) { return 1; }\n" {
		t.Errorf("f.mc reads %q after the caller's edit", src)
	}
	if _, ok := tr.File("g.mc"); ok {
		t.Error("a file added to the caller's map appeared in the tree")
	}
	if got := tr.Hash(); got != hash {
		t.Errorf("hash changed after the caller's edit: %s -> %s", hash, got)
	}
	if New("v-copy", files).Hash() == hash {
		t.Error("trees of different content share a hash")
	}
}

// TestHashComputedOnce: a tree hashes its content once; later calls
// return the memoized hash without allocating.
func TestHashComputedOnce(t *testing.T) {
	tr := sample()
	want := tr.Hash()
	if allocs := testing.AllocsPerRun(100, func() {
		if tr.Hash() != want {
			t.Fatal("hash changed between calls")
		}
	}); allocs != 0 {
		t.Errorf("repeat Hash allocates %.0f times, want 0", allocs)
	}
}

func TestPatchTree(t *testing.T) {
	tr := sample()
	patch := `--- a/b.mc
+++ b/b.mc
@@ -1,1 +1,1 @@
-int helper(int x) { return x * 2; }
+int helper(int x) { return x * 3; }
`
	patched, err := tr.Patch(patch)
	if err != nil {
		t.Fatal(err)
	}
	if src, _ := patched.File("b.mc"); !strings.Contains(src, "x * 3") {
		t.Errorf("patched b.mc: %q", src)
	}
	if src, _ := tr.File("b.mc"); !strings.Contains(src, "x * 2") {
		t.Error("original tree mutated")
	}
	if patched.Version() != tr.Version() || patched.Hash() == tr.Hash() {
		t.Errorf("patched tree: version %q, same hash %v", patched.Version(), patched.Hash() == tr.Hash())
	}
	if _, err := tr.Patch("garbage"); err == nil {
		t.Error("garbage patch accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	tr := New("bad", map[string]string{"x.mc": "int broken( { return 0; }\n"})
	if _, err := BuildCached(tr, codegen.KernelBuild()); err == nil {
		t.Error("syntax error built")
	}
	tr = New("bad2", map[string]string{"x.mcs": "bogus instruction\n"})
	if _, err := BuildCached(tr, codegen.KernelBuild()); err == nil {
		t.Error("bad assembly built")
	}
	tr = New("bad3", map[string]string{"x.mc": `#include "missing.h"` + "\n"})
	if _, err := BuildCached(tr, codegen.KernelBuild()); err == nil {
		t.Error("missing include built")
	}
}

// TestBuildDeterminism: two builds of one tree, each from an empty
// store, serialize to the same bytes.
func TestBuildDeterminism(t *testing.T) {
	tr := sample()
	digest := func() string {
		useFreshStore(t)
		br, err := BuildCached(tr, codegen.KspliceBuild())
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, f := range br.Objects {
			s += objBytes(t, f)
		}
		return s
	}
	if digest() != digest() {
		t.Error("builds differ")
	}
}
