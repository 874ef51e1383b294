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

func TestCloneIsolation(t *testing.T) {
	tr := sample()
	cp := tr.Clone()
	cp.Files["a.mc"] = "int entry(void) { return 1; }\n"
	if tr.Files["a.mc"] == cp.Files["a.mc"] {
		t.Error("clone shares file map")
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
	if !strings.Contains(patched.Files["b.mc"], "x * 3") {
		t.Errorf("patched b.mc: %q", patched.Files["b.mc"])
	}
	if !strings.Contains(tr.Files["b.mc"], "x * 2") {
		t.Error("original tree mutated")
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
		var sb strings.Builder
		for _, f := range br.Objects {
			if err := f.Write(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	if digest() != digest() {
		t.Error("builds differ")
	}
}
