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

// canonical returns an instruction of every defined opcode, with
// operands in the form Decode produces.
func canonical(t *testing.T) []isa.Insn {
	t.Helper()
	var out []isa.Insn
	for v := range 256 {
		if op := isa.Op(v); op.Valid() {
			in, err := isa.Decode(isa.Encode(nil, isa.Insn{
				Op: op, Rd: isa.R1, Rs: isa.FP, CC: isa.CCUGE, Imm: -42, Disp: -8, Rel: 3,
			}), 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, in)
		}
	}
	return out
}

// TestEveryMnemonicAssembles assembles every mnemonic of the instruction
// table, written as isa.Insn.String writes it, and decodes it back. A
// branch takes a label; the hand-written operand forms are pinned too.
func TestEveryMnemonicAssembles(t *testing.T) {
	for _, want := range canonical(t) {
		stmt := want.String()
		if want.Op.Branch() != isa.BranchNone {
			stmt = "l: ; " + want.Op.Name() + " l"
			if want.Op.Branch() == isa.BranchJcc {
				stmt = "l: ; " + want.Op.Name() + " " + want.CC.String() + ", l"
			}
		}
		code, _ := assembleOne(t, stmt)
		got, err := isa.Decode(code, 0)
		switch {
		case err != nil:
			t.Errorf("%q: decode: %v", stmt, err)
		case want.Op.Branch() != isa.BranchNone:
			if got.Op.Branch() != want.Op.Branch() || got.CC != want.CC {
				t.Errorf("%q assembled to %v", stmt, got)
			}
		case got != want:
			t.Errorf("%q assembled to %v", stmt, got)
		}
	}

	forms := []struct {
		stmt string
		want isa.Insn
	}{
		{"movi64 r1, 0x123456789", isa.Insn{Op: isa.OpMOVI64, Rd: isa.R1, Imm: 0x123456789}},
		{"lea r0, [fp-8]", isa.Insn{Op: isa.OpLEA, Rd: isa.R0, Rs: isa.FP, Disp: -8}},
		{"ld8u r0, [r1]", isa.Insn{Op: isa.OpLD8U, Rd: isa.R0, Rs: isa.R1}},
		{"ld16u r0, [r1-4]", isa.Insn{Op: isa.OpLD16U, Rd: isa.R0, Rs: isa.R1, Disp: -4}},
		{"st8 [r1], r0", isa.Insn{Op: isa.OpST8, Rd: isa.R1, Rs: isa.R0}},
		{"addi64 sp, -32", isa.Insn{Op: isa.OpADDI64, Rd: isa.SP, Imm: -32}},
		{"cmpi32 r0, 'a'", isa.Insn{Op: isa.OpCMPI32, Rd: isa.R0, Imm: 'a'}},
		{"cmpi64 r0, -1", isa.Insn{Op: isa.OpCMPI64, Rd: isa.R0, Imm: -1}},
		{"trap 0x10", isa.Insn{Op: isa.OpTRAP, Imm: 16}},
		{"MOV r2, r3", isa.Insn{Op: isa.OpMOV, Rd: isa.R2, Rs: isa.R3}},
	}
	for _, c := range forms {
		code, _ := assembleOne(t, c.stmt)
		c.want.Len = c.want.Op.Len()
		if got, err := isa.Decode(code, 0); err != nil || got != c.want {
			t.Errorf("%q assembled to %v (%v), want %v", c.stmt, got, err, c.want)
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

// TestAsmOperandErrors: each statement is refused with an *asmError
// naming it, never assembled with a truncated or ignored operand.
func TestAsmOperandErrors(t *testing.T) {
	bad := []string{
		"movi r0",                   // missing immediate
		"movi r0, r1, r2",           // too many
		"ret r0",                    // operand on a mnemonic that takes none
		"mov r0, [r1]",              // memory where register expected
		"ld32s r0, r1",              // register where memory expected
		"mov r0, r6",                // no such register name
		"setcc r0, zz",              // bad condition
		"jcc loop",                  // missing condition
		"jmp",                       // missing target
		"trap 99999",                // out of range
		"movi r0, 0x100000000",      // fits 32 bits neither signed nor unsigned
		"addi64 sp, 0x100000008",    // ditto
		"ld64 r0, [r1+0x100000000]", // ditto, a displacement
		"cmpi32 r0, 0x1ffffffff",    // ditto
		"addi64 sp, bogus",          // non-numeric
		"movi64 r0, #sym",           // a symbol's address is an imm32
		"cmpi32 r0, #sym",           // only movi takes a symbol
		"frob r0",                   // unknown mnemonic
		".align zero",               // bad alignment
	}
	for _, stmt := range bad {
		src := ".func f\n" + stmt + "\n ret\n.endfunc\n"
		_, err := AssembleFile("bad.mcs", src, KernelBuild())
		var ae *asmError
		if !errors.As(err, &ae) || ae.line != stmt {
			t.Errorf("%q: got %v, want an *asmError for the statement", stmt, err)
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

// TestAsmShortOperandLists feeds every mnemonic of the instruction table
// that takes operands no operands at all and each shorter prefix of its
// operand list: each must come back as an *asmError naming the
// statement, never as a panic.
func TestAsmShortOperandLists(t *testing.T) {
	stmts := []string{".align"}
	for _, in := range canonical(t) {
		mn, rest, ok := strings.Cut(in.String(), " ")
		if !ok {
			continue
		}
		ops := strings.Split(rest, ",")
		for n := range ops {
			stmts = append(stmts, strings.TrimSpace(mn+" "+strings.Join(ops[:n], ",")))
		}
	}
	for _, stmt := range stmts {
		src := ".func f\n" + stmt + "\n ret\n.endfunc\n"
		_, err := AssembleFile("short.mcs", src, KspliceBuild())
		var ae *asmError
		if !errors.As(err, &ae) || ae.line != stmt {
			t.Errorf("%q: got %v, want an *asmError for the statement", stmt, err)
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
	_, err = Compile(u, KernelBuild())
	var ae *asmError
	if !errors.As(err, &ae) || ae.line != "mov r0" {
		t.Errorf(`asm("mov r0"): got %v, want the assembler's *asmError`, err)
	}
}
