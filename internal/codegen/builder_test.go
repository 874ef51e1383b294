package codegen

import (
	"bytes"
	"testing"

	"gosplice/internal/isa"
	"gosplice/internal/obj"
)

// TestBuilderMarkersSplitRawRuns: consecutive instructions share one
// frag, but a label or symbol marker between them keeps its position,
// so symbol extents, branch targets and relocation offsets come out as
// if every instruction were its own frag.
func TestBuilderMarkersSplitRawRuns(t *testing.T) {
	mov := isa.Insn{Op: isa.OpMOV, Rd: isa.R0, Rs: isa.R1}
	push := isa.Insn{Op: isa.OpPUSH, Rd: isa.R0}
	ret := isa.Insn{Op: isa.OpRET}
	b := NewBuilder(".text", true)
	b.BeginSym("f")
	b.Emit(mov)            // 0
	b.MoviSym(isa.R2, "x") // 2, imm32 at 4
	b.Label("L")
	b.Emit(push) // 8
	b.EndSym("f")
	b.Emit(ret) // 10, after f's end marker: not part of f
	b.BeginSym("g")
	b.MoviSym(isa.R3, "y") // 11, imm32 at 13
	b.Jmp("L")             // 17
	b.EndSym("g")
	sec, exts, err := b.Finalize(obj.Text, 1)
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, in := range []isa.Insn{
		mov, {Op: isa.OpMOVI, Rd: isa.R2}, push, ret, {Op: isa.OpMOVI, Rd: isa.R3},
		{Op: isa.OpJMPS, Rel: 8 - (17 + 2)},
	} {
		want = isa.Encode(want, in)
	}
	if !bytes.Equal(sec.Data, want) {
		t.Errorf("section bytes % x, want % x", sec.Data, want)
	}
	if exts["f"] != [2]uint32{0, 10} || exts["g"] != [2]uint32{11, 8} {
		t.Errorf("extents f=%v g=%v, want f=[0 10] g=[11 8]", exts["f"], exts["g"])
	}
	refs := b.PendingRelocs()
	if len(refs) != 2 ||
		refs[0] != (relocRef{off: 4, typ: obj.RelAbs32, sym: "x"}) ||
		refs[1] != (relocRef{off: 13, typ: obj.RelAbs32, sym: "y"}) {
		t.Errorf("relocs %+v, want x at 4 and y at 13", refs)
	}
}
