package codegen

import (
	"bytes"
	"testing"

	"gosplice/internal/isa"
	"gosplice/internal/obj"
)

// TestBuilderMarkersSplitRawRuns: consecutive literal bytes share one
// frag, but a label or symbol marker between them keeps its position,
// so symbol extents, branch targets and relocation offsets come out as
// if every Raw were its own frag.
func TestBuilderMarkersSplitRawRuns(t *testing.T) {
	b := NewBuilder(".text", true)
	b.BeginSym("f")
	b.Raw([]byte{1, 2})
	b.RawReloc([]byte{3, 4, 5, 6, 7}, 1, obj.RelAbs32, "x", 0)
	b.Label("L")
	b.Raw([]byte{8})
	b.EndSym("f")
	b.Raw([]byte{9, 9}) // after f's end marker: not part of f
	b.BeginSym("g")
	b.RawReloc([]byte{10, 11, 12, 13, 14}, 1, obj.RelAbs32, "y", 4)
	b.Jmp("L")
	b.EndSym("g")
	sec, exts, err := b.Finalize(obj.Text, 1)
	if err != nil {
		t.Fatal(err)
	}

	want := isa.JMPS([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 10, 11, 12, 13, 14}, 7-(15+2))
	if !bytes.Equal(sec.Data, want) {
		t.Errorf("section bytes % x, want % x", sec.Data, want)
	}
	if exts["f"] != [2]uint32{0, 8} || exts["g"] != [2]uint32{10, 7} {
		t.Errorf("extents f=%v g=%v, want f=[0 8] g=[10 7]", exts["f"], exts["g"])
	}
	refs := b.PendingRelocs()
	if len(refs) != 2 ||
		refs[0] != (relocRef{off: 3, typ: obj.RelAbs32, sym: "x"}) ||
		refs[1] != (relocRef{off: 11, typ: obj.RelAbs32, sym: "y", addend: 4}) {
		t.Errorf("relocs %+v, want x at 3 and y+4 at 11", refs)
	}
}
