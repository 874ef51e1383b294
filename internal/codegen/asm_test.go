package codegen

import (
	"errors"
	"strings"
	"testing"

	"gosplice/internal/isa"
	"gosplice/internal/minic"
	"gosplice/internal/obj"
)

// assembleOne assembles a single .func around the statement and returns
// the emitted body bytes (prologue-free: the statement is the whole body).
func assembleOne(t *testing.T, stmt string) ([]byte, *obj.File) {
	t.Helper()
	src := ".func probe\n" + stmt + "\n ret\n.endfunc\n"
	f, err := AssembleFile("one.mcs", src, KspliceBuild())
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	sec := f.Section(obj.FuncSectionPrefix + "probe")
	if sec == nil {
		t.Fatalf("%q: no section", stmt)
	}
	return sec.Data, f
}

// TestEveryMnemonicAssembles decodes each assembled statement back and
// checks the opcode.
func TestEveryMnemonicAssembles(t *testing.T) {
	cases := []struct {
		stmt string
		op   isa.Op
	}{
		{"nop", isa.OpNOP},
		{"movi r0, 42", isa.OpMOVI},
		{"movi64 r1, 0x123456789", isa.OpMOVI64},
		{"mov r2, r3", isa.OpMOV},
		{"lea r0, [fp-8]", isa.OpLEA},
		{"ld8u r0, [r1]", isa.OpLD8U},
		{"ld8s r0, [r1+4]", isa.OpLD8S},
		{"ld16u r0, [r1-4]", isa.OpLD16U},
		{"ld16s r0, [r1+0]", isa.OpLD16S},
		{"ld32u r0, [sp+16]", isa.OpLD32U},
		{"ld32s r0, [fp+16]", isa.OpLD32S},
		{"ld64 r0, [fp+24]", isa.OpLD64},
		{"st8 [r1], r0", isa.OpST8},
		{"st16 [r1+2], r0", isa.OpST16},
		{"st32 [r1+4], r0", isa.OpST32},
		{"st64 [sp+0], r0", isa.OpST64},
		{"add32 r0, r1", isa.OpADD32},
		{"sub32 r0, r1", isa.OpSUB32},
		{"mul32 r0, r1", isa.OpMUL32},
		{"div32s r0, r1", isa.OpDIV32S},
		{"div32u r0, r1", isa.OpDIV32U},
		{"mod32s r0, r1", isa.OpMOD32S},
		{"mod32u r0, r1", isa.OpMOD32U},
		{"and32 r0, r1", isa.OpAND32},
		{"or32 r0, r1", isa.OpOR32},
		{"xor32 r0, r1", isa.OpXOR32},
		{"shl32 r0, r1", isa.OpSHL32},
		{"shr32 r0, r1", isa.OpSHR32},
		{"sar32 r0, r1", isa.OpSAR32},
		{"add64 r0, r1", isa.OpADD64},
		{"sub64 r0, r1", isa.OpSUB64},
		{"mul64 r0, r1", isa.OpMUL64},
		{"div64s r0, r1", isa.OpDIV64S},
		{"div64u r0, r1", isa.OpDIV64U},
		{"mod64s r0, r1", isa.OpMOD64S},
		{"mod64u r0, r1", isa.OpMOD64U},
		{"and64 r0, r1", isa.OpAND64},
		{"or64 r0, r1", isa.OpOR64},
		{"xor64 r0, r1", isa.OpXOR64},
		{"shl64 r0, r1", isa.OpSHL64},
		{"shr64 r0, r1", isa.OpSHR64},
		{"sar64 r0, r1", isa.OpSAR64},
		{"neg32 r0", isa.OpNEG32},
		{"not32 r0", isa.OpNOT32},
		{"zext32 r0", isa.OpZEXT32},
		{"neg64 r0", isa.OpNEG64},
		{"not64 r0", isa.OpNOT64},
		{"sext8 r0", isa.OpSEXT8},
		{"sext16 r0", isa.OpSEXT16},
		{"sext32 r0", isa.OpSEXT32},
		{"zext8 r0", isa.OpZEXT8},
		{"zext16 r0", isa.OpZEXT16},
		{"addi64 sp, -32", isa.OpADDI64},
		{"cmpi32 r0, 'a'", isa.OpCMPI32},
		{"cmpi64 r0, -1", isa.OpCMPI64},
		{"cmp32 r0, r1", isa.OpCMP32},
		{"cmp64 r0, r1", isa.OpCMP64},
		{"setcc r0, uge", isa.OpSETCC},
		{"callr r4", isa.OpCALLR},
		{"jmpr r4", isa.OpJMPR},
		{"push r5", isa.OpPUSH},
		{"pop r5", isa.OpPOP},
		{"trap 16", isa.OpTRAP},
		{"hlt", isa.OpHLT},
		{"brk", isa.OpBRK},
	}
	for _, c := range cases {
		code, _ := assembleOne(t, c.stmt)
		in, err := isa.Decode(code, 0)
		if err != nil {
			t.Errorf("%q: decode: %v", c.stmt, err)
			continue
		}
		if in.Op != c.op {
			t.Errorf("%q assembled to %s, want %s", c.stmt, in.Op.Name(), c.op.Name())
		}
	}
}

func TestAsmBranchesAndSymbols(t *testing.T) {
	// Local labels relax; symbol targets become relocations; #symbol
	// immediates become abs32 relocations.
	src := `.global entry
.func entry
	movi r0, #shared_var
	call helper
loop:
	addi64 r0, -1
	cmpi64 r0, 0
	jcc ne, loop
	jmp done
done:
	ret
.endfunc
`
	f, err := AssembleFile("b.mcs", src, KernelBuild())
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Section(".text")
	if sec == nil {
		t.Fatal("no .text")
	}
	var sawAbs, sawCall bool
	for _, r := range sec.Relocs {
		switch f.Symbols[r.Sym].Name {
		case "shared_var":
			sawAbs = r.Type == obj.RelAbs32
		case "helper":
			sawCall = r.Type == obj.RelPC32 && r.Addend == -4
		}
	}
	if !sawAbs || !sawCall {
		t.Errorf("relocs: abs=%v call=%v (%v)", sawAbs, sawCall, sec.Relocs)
	}
	// The loop branch relaxed to short form in KernelBuild mode.
	short := false
	for off := 0; off < len(sec.Data); {
		in, err := isa.Decode(sec.Data, off)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.OpJCCS || in.Op == isa.OpJMPS {
			short = true
		}
		off += in.Len
	}
	if !short {
		t.Error("no relaxed branch in whole-text assembly")
	}
}

func TestAsmOperandErrors(t *testing.T) {
	bad := []string{
		"movi r0",          // missing immediate
		"movi r0, r1, r2",  // too many
		"mov r0, [r1]",     // memory where register expected
		"ld32s r0, r1",     // register where memory expected
		"setcc r0, zz",     // bad condition
		"jcc loop",         // missing condition
		"trap 99999",       // out of range
		"addi64 sp, bogus", // non-numeric
		".align zero",      // bad alignment
	}
	for _, stmt := range bad {
		src := ".func f\n" + stmt + "\n ret\n.endfunc\n"
		if _, err := AssembleFile("bad.mcs", src, KernelBuild()); err == nil {
			t.Errorf("accepted %q", stmt)
		} else if !strings.Contains(err.Error(), "asm") && !strings.Contains(err.Error(), stmt[:3]) {
			// Error text should point at assembly problems.
			_ = err
		}
	}
}

func TestAsmAlignDirective(t *testing.T) {
	src := `.func f
	nop
.align 8
target:
	ret
.endfunc
`
	f, err := AssembleFile("al.mcs", src, KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Section(obj.FuncSectionPrefix + "f")
	// nop (1 byte) + pad to 8 -> ret at offset 8.
	if sec.Data[8] != byte(isa.OpRET) {
		t.Errorf("ret at wrong offset: % x", sec.Data)
	}
}

// TestAsmShortOperandLists feeds every mnemonic that takes operands no
// operands at all and one operand too few: each must come back as an
// *asmError naming the statement, never as a panic.
func TestAsmShortOperandLists(t *testing.T) {
	operands := map[string]int{
		".align": 1, "jmp": 1, "call": 1, "callr": 1, "jmpr": 1, "push": 1, "pop": 1, "trap": 1,
		"movi": 2, "movi64": 2, "mov": 2, "lea": 2, "addi64": 2,
		"cmpi32": 2, "cmpi64": 2, "cmp32": 2, "cmp64": 2, "setcc": 2, "jcc": 2,
	}
	for mn := range loadByName {
		operands[mn] = 2
	}
	for mn := range storeByName {
		operands[mn] = 2
	}
	for mn := range aluByName {
		operands[mn] = 2
	}
	for mn := range alu1ByName {
		operands[mn] = 1
	}
	for mn, n := range operands {
		for _, stmt := range []string{mn, mn + " r0"}[:n] {
			src := ".func f\n" + stmt + "\n ret\n.endfunc\n"
			_, err := AssembleFile("short.mcs", src, KspliceBuild())
			var ae *asmError
			if !errors.As(err, &ae) || ae.line != stmt {
				t.Errorf("%q: got %v, want an *asmError for the statement", stmt, err)
			}
		}
	}

	// The same statement inside a MiniC asm() fails the compile.
	u, err := minic.ParseString("a.mc", `int f(void) { asm("mov r0"); return 0; }`)
	if err == nil {
		err = minic.Check(u)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(u, KernelBuild()); err == nil || !strings.Contains(err.Error(), `asm "mov r0"`) {
		t.Errorf(`asm("mov r0"): got %v, want the assembler's error`, err)
	}
}
