package isa

import (
	"math"
	"testing"
	"testing/quick"
)

// samples returns instructions covering every defined opcode, each in
// the form Decode produces, with operands per layout that reach the
// edges of their fields.
func samples() []Insn {
	var out []Insn
	for v := range 256 {
		op := Op(v)
		if !op.Valid() {
			continue
		}
		var variants []Insn
		switch opInfos[op].layout {
		case layNone, layPad1, layPad2, layPad3:
			variants = []Insn{{}}
		case layRegs:
			variants = []Insn{{Rd: R0, Rs: R3}, {Rd: SP, Rs: FP}}
		case layReg:
			variants = []Insn{{Rd: R5}, {Rd: SP}}
		case layRegImm:
			variants = []Insn{{Rd: R1, Imm: -7}, {Rd: SP, Imm: math.MinInt32}, {Rd: FP, Imm: math.MaxInt32}}
		case layRegImm64:
			variants = []Insn{{Rd: R2, Imm: 1 << 40}, {Rd: R0, Imm: math.MinInt64}, {Rd: R4, Imm: -1}}
		case layRegDisp:
			variants = []Insn{{Rd: R1, Rs: FP, Disp: -16}, {Rd: FP, Rs: R2, Disp: 0}, {Rd: SP, Rs: SP, Disp: math.MaxInt32}}
		case layRegCC:
			variants = []Insn{{Rd: R0, CC: CCLE}, {Rd: R5, CC: CCUGE}}
		case layRel32:
			variants = []Insn{{Rel: 100}, {Rel: math.MinInt32}}
		case layRel8:
			variants = []Insn{{Rel: -5}, {Rel: -128}, {Rel: 127}}
		case layCCRel32:
			variants = []Insn{{CC: CCNE, Rel: 64}, {CC: CCUGE, Rel: -1000}}
		case layCCRel8:
			variants = []Insn{{CC: CCEQ, Rel: 3}, {CC: CCULT, Rel: -128}}
		case layImm16:
			variants = []Insn{{Imm: 7}, {Imm: 0xffff}}
		}
		for _, in := range variants {
			in.Op, in.Len = op, op.Len()
			out = append(out, in)
		}
	}
	return out
}

// TestEncodeRoundTrip: for every defined opcode, Encode writes Op.Len()
// bytes that Decode reads back, and ParseInsn reads back String.
func TestEncodeRoundTrip(t *testing.T) {
	seen := map[Op]bool{}
	for _, in := range samples() {
		seen[in.Op] = true
		code := Encode(nil, in)
		if len(code) != in.Op.Len() {
			t.Errorf("%v: encoded %d bytes, Op.Len()=%d", in, len(code), in.Op.Len())
		}
		if got, err := Decode(code, 0); err != nil || got != in {
			t.Errorf("%v: Decode(Encode) = %+v, %v", in, got, err)
		}
		if got, err := ParseInsn(in.String()); err != nil || got != in {
			t.Errorf("%v: ParseInsn(String) = %+v, %v", in, got, err)
		}
	}
	for v := range 256 {
		if Op(v).Valid() && !seen[Op(v)] {
			t.Errorf("opcode %s has no sample", Op(v).Name())
		}
	}
}

// TestParseInsnForms pins the hand-written forms ParseInsn reads beyond
// what String prints, and the operands it refuses.
func TestParseInsnForms(t *testing.T) {
	ok := []struct {
		text string
		want Insn
	}{
		{"ld8u r0, [r1]", Insn{Op: OpLD8U, Rd: R0, Rs: R1}},
		{"ld16u r0, [r1-4]", Insn{Op: OpLD16U, Rd: R0, Rs: R1, Disp: -4}},
		{"st16 [ r1+0x10 ], r0", Insn{Op: OpST16, Rd: R1, Rs: R0, Disp: 16}},
		{"cmpi32 r0, 'a'", Insn{Op: OpCMPI32, Rd: R0, Imm: 'a'}},
		{"movi64 r1, 0x123456789", Insn{Op: OpMOVI64, Rd: R1, Imm: 0x123456789}},
		{"movi64 r1, 0xffffffffffffffff", Insn{Op: OpMOVI64, Rd: R1, Imm: -1}},
		{"movi r0, 0xffffffff", Insn{Op: OpMOVI, Rd: R0, Imm: -1}},
		{"addi64 sp, -32", Insn{Op: OpADDI64, Rd: SP, Imm: -32}},
		{"jmps 0xff", Insn{Op: OpJMPS, Rel: -1}},
		{"trap 0xffff", Insn{Op: OpTRAP, Imm: 0xffff}},
		{"  nop4\t", Insn{Op: OpNOP4}},
	}
	for _, c := range ok {
		c.want.Len = c.want.Op.Len()
		if got, err := ParseInsn(c.text); err != nil || got != c.want {
			t.Errorf("ParseInsn(%q) = %+v, %v; want %+v", c.text, got, err, c.want)
		}
	}
	bad := []string{
		"movi r0, 0x100000000",
		"addi64 sp, 0x100000008",
		"ld64 r0, [r1+0x100000000]",
		"cmpi32 r0, 0x1ffffffff",
		"movi r0, -0x80000001",
		"jmps 256",
		"jccs eq, -129",
		"trap 99999",
		"movi64 r0, 0x10000000000000000",
		"ret r0",
		"mov r0",
		"mov r0, r6",
		"mov r0, [r1]",
		"ld32s r0, r1",
		"setcc r0, zz",
		"st8 [r1, r0",
		"movi r0, bogus",
		"frob r0",
	}
	for _, text := range bad {
		if in, err := ParseInsn(text); err == nil {
			t.Errorf("ParseInsn(%q) accepted as %v", text, in)
		}
	}
}

func TestDecodeOperands(t *testing.T) {
	code := Encode(nil, Insn{Op: OpMOVI, Rd: R3, Imm: -42})
	in, err := Decode(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpMOVI || in.Rd != R3 || in.Imm != -42 {
		t.Errorf("movi decoded as %+v", in)
	}

	code = Encode(nil, Insn{Op: OpST32, Rd: FP, Disp: -12, Rs: R2})
	in, err = Decode(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Rd != FP || in.Rs != R2 || in.Disp != -12 {
		t.Errorf("st32 decoded as %+v", in)
	}

	code = Encode(nil, Insn{Op: OpJCC, CC: CCUGE, Rel: -1000})
	in, err = Decode(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.CC != CCUGE || in.Rel != -1000 {
		t.Errorf("jcc decoded as %+v", in)
	}
	if off, size, ok := in.RelInfo(); !ok || off != 2 || size != 4 {
		t.Errorf("jcc RelInfo = (%d,%d,%v)", off, size, ok)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0xff}, 0); err == nil {
		t.Error("undefined opcode decoded without error")
	}
	if _, err := Decode(Encode(nil, Insn{Op: OpJMP, Rel: 1})[:3], 0); err == nil {
		t.Error("truncated jmp decoded without error")
	}
	if _, err := Decode(nil, 0); err == nil {
		t.Error("empty code decoded without error")
	}
	if _, err := Decode([]byte{byte(OpJCC), 99, 0, 0, 0, 0}, 0); err == nil {
		t.Error("invalid condition code decoded without error")
	}
	// Register fields name r0-r5, fp and sp only.
	for _, code := range [][]byte{{byte(OpMOV), 0x80}, {byte(OpMOV), 0x08}, {byte(OpPUSH), 0x0f}} {
		if in, err := Decode(code, 0); err == nil {
			t.Errorf("% x decoded as %v, want an invalid-register error", code, in)
		}
	}
}

func TestNopLenAndSkip(t *testing.T) {
	code := Nop(nil, 7) // nop4 + nop3
	if n := NopLen(code, 0); n != 4 {
		t.Errorf("NopLen at 0 = %d, want 4", n)
	}
	if n := NopLen(code, 4); n != 3 {
		t.Errorf("NopLen at 4 = %d, want 3", n)
	}
	ret := Encode(nil, Insn{Op: OpRET})
	code = append(code, ret...)
	if off := SkipNops(code, 0); off != 7 {
		t.Errorf("SkipNops = %d, want 7", off)
	}
	if n := NopLen(ret, 0); n != 0 {
		t.Errorf("NopLen on ret = %d, want 0", n)
	}
	// A truncated multi-byte no-op is not a no-op.
	if n := NopLen([]byte{byte(OpNOP4), 0x66}, 0); n != 0 {
		t.Errorf("NopLen on truncated nop4 = %d, want 0", n)
	}
}

func TestNopPaddingLengths(t *testing.T) {
	for n := 0; n <= 32; n++ {
		code := Nop(nil, n)
		if len(code) != n {
			t.Fatalf("Nop(%d) emitted %d bytes", n, len(code))
		}
		// Every emitted byte sequence must decode as no-ops covering
		// exactly n bytes.
		off := SkipNops(code, 0)
		if off != n {
			t.Fatalf("Nop(%d): SkipNops covered %d bytes", n, off)
		}
	}
}

func TestBranchTargetAndTrampoline(t *testing.T) {
	// A jump at address 0x1000 to 0x1020: rel = 0x1020 - 0x1005.
	code := Encode(nil, Insn{Op: OpJMP, Rel: 0x1b})
	in, err := Decode(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Target(0x1000); got != 0x1020 {
		t.Errorf("Target = %#x, want 0x1020", got)
	}

	tr := Trampoline(0x1000, 0x2000)
	if len(tr) != TrampolineLen {
		t.Fatalf("trampoline length %d", len(tr))
	}
	in, err = Decode(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Target(0x1000); got != 0x2000 {
		t.Errorf("trampoline target = %#x, want 0x2000", got)
	}
	// Backward trampoline.
	tr = Trampoline(0x2000, 0x1000)
	in, _ = Decode(tr, 0)
	if got := in.Target(0x2000); got != 0x1000 {
		t.Errorf("backward trampoline target = %#x, want 0x1000", got)
	}
}

func TestCCNegate(t *testing.T) {
	for c := CC(0); c < NumCC; c++ {
		n := c.Negate()
		if n == c {
			t.Errorf("%s negates to itself", c)
		}
		if n.Negate() != c {
			t.Errorf("%s double-negate = %s", c, n.Negate())
		}
	}
}

func TestBranchClasses(t *testing.T) {
	if OpJMP.Branch() != BranchJmp || OpJMPS.Branch() != BranchJmp {
		t.Error("jmp/jmps not in BranchJmp class")
	}
	if OpJCC.Branch() != BranchJcc || OpJCCS.Branch() != BranchJcc {
		t.Error("jcc/jccs not in BranchJcc class")
	}
	if OpCALL.Branch() != BranchCall {
		t.Error("call not in BranchCall class")
	}
	if OpRET.Branch() != BranchNone || OpMOV.Branch() != BranchNone {
		t.Error("non-branch op has branch class")
	}
}

// Decoding arbitrary bytes must never panic and, on success, must report a
// length covered by the input.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(code []byte, off uint8) bool {
		in, err := Decode(code, int(off))
		if err != nil {
			return true
		}
		return in.Len > 0 && int(off)+in.Len <= len(code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDisasm(t *testing.T) {
	code := Encode(nil, Insn{Op: OpCALL, Rel: 0x10})
	text, n, err := Disasm(code, 0, 0x400000)
	if err != nil || n != 5 {
		t.Fatalf("Disasm: %q %d %v", text, n, err)
	}
	if text != "call -> 0x400015" {
		t.Errorf("Disasm = %q", text)
	}
	if _, _, err := Disasm([]byte{0xee}, 0, 0); err == nil {
		t.Error("Disasm of junk succeeded")
	}
}

func TestRegAndCCStrings(t *testing.T) {
	if SP.String() != "sp" || FP.String() != "fp" || R2.String() != "r2" {
		t.Error("register names wrong")
	}
	if CCULT.String() != "ult" {
		t.Errorf("CCULT = %q", CCULT.String())
	}
	if OpADD32.Name() != "add32" {
		t.Errorf("OpADD32 name = %q", OpADD32.Name())
	}
	if Op(0xfe).Name() == "" || Op(0xfe).Valid() {
		t.Error("undefined opcode handling wrong")
	}
}
