package vm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"gosplice/internal/isa"
)

// asm encodes one SIM32 instruction per line, written as isa.ParseInsn
// reads it.
func asm(lines ...string) []byte {
	var code []byte
	for _, line := range lines {
		in, err := isa.ParseInsn(line)
		if err != nil {
			panic(err)
		}
		code = isa.Encode(code, in)
	}
	return code
}

// load copies code into a fresh machine at addr and returns a thread ready
// to run it with a stack at the top of memory.
func load(code []byte, addr uint32) (*Machine, *Thread) {
	m := New(1 << 16)
	m.Mem.WriteAt(addr, code)
	t := &Thread{IP: addr}
	t.SetSP(uint32(m.Mem.Len()))
	return m, t
}

// trapTable serves each TRAP number from its own function.
type trapTable map[uint16]func(*Thread) error

func (tt trapTable) Trap(num uint16, t *Thread) error {
	fn, ok := tt[num]
	if !ok {
		return fmt.Errorf("unregistered trap %d", num)
	}
	return fn(t)
}

func TestArith32SignExtension(t *testing.T) {
	// r0 = 0x7fffffff; r1 = 1; add32 -> wraps to -2^31, sign-extended.
	code := asm(
		"movi r0, 0x7fffffff",
		"movi r1, 1",
		"add32 r0, r1",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if int64(th.R[isa.R0]) != -2147483648 {
		t.Errorf("add32 overflow: r0 = %d", int64(th.R[isa.R0]))
	}
}

func TestArith64(t *testing.T) {
	code := asm(
		"movi64 r0, 1099511627776",
		"movi64 r1, 3298534883328",
		"add64 r0, r1",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R0] != 4<<40 {
		t.Errorf("add64: r0 = %#x", th.R[isa.R0])
	}
}

func TestSignedVsUnsignedDivision(t *testing.T) {
	// -7 / 2 signed = -3; same bits unsigned = huge.
	code := asm(
		"movi r0, -7",
		"movi r1, 2",
		"div32s r0, r1",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if int64(th.R[isa.R0]) != -3 {
		t.Errorf("div32s: %d", int64(th.R[isa.R0]))
	}

	code = asm(
		"movi r0, -7",
		"movi r1, 2",
		"div32u r0, r1",
		"hlt",
	)
	m, th = load(code, 0x100)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if uint32(th.R[isa.R0]) != (0xFFFFFFF9)/2 {
		t.Errorf("div32u: %#x", th.R[isa.R0])
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	code := asm(
		"movi r0, 1",
		"movi r1, 0",
		"div32s r0, r1",
	)
	m, th := load(code, 0x100)
	_, err := m.Run(th, 100)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
	var f *Fault
	if !asFault(err, &f) || f.IP != 0x100+12 {
		t.Errorf("fault IP = %v", err)
	}
}

func asFault(err error, out **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*out = f
	}
	return ok
}

func TestLoadStoreWidths(t *testing.T) {
	// Store -1 as 8/16/32/64 at different addresses, reload signed and
	// unsigned, verify extension behaviour.
	code := asm(
		"movi r0, -1",
		"movi r1, 0x8000", // base address
		"st8 [r1], r0",
		"st16 [r1+8], r0",
		"st32 [r1+16], r0",
		"st64 [r1+24], r0",
		"ld8u r2, [r1]",
		"ld8s r3, [r1]",
		"ld16u r4, [r1+8]",
		"ld32s r5, [r1+16]",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R2] != 0xff {
		t.Errorf("ld8u = %#x", th.R[isa.R2])
	}
	if int64(th.R[isa.R3]) != -1 {
		t.Errorf("ld8s = %d", int64(th.R[isa.R3]))
	}
	if th.R[isa.R4] != 0xffff {
		t.Errorf("ld16u = %#x", th.R[isa.R4])
	}
	if int64(th.R[isa.R5]) != -1 {
		t.Errorf("ld32s = %d", int64(th.R[isa.R5]))
	}
}

func TestCallRetAndStack(t *testing.T) {
	// main: movi r0,5; call f; hlt   f: addi r0,+1... via ALU; ret
	fAddr := uint32(0x300)
	main := asm(
		"movi r0, 5",
		fmt.Sprintf("call %+d", fAddr-(0x100+11)), // to f, from the end of the call
		"hlt",
	)
	f := asm(
		"movi r1, 37",
		"add32 r0, r1",
		"ret",
	)

	m, th := load(main, 0x100)
	m.Mem.WriteAt(fAddr, f)

	sp0 := th.SP()
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R0] != 42 {
		t.Errorf("r0 = %d, want 42", th.R[isa.R0])
	}
	if th.SP() != sp0 {
		t.Errorf("stack imbalance: sp %#x -> %#x", sp0, th.SP())
	}
	if !th.Halted {
		t.Error("thread not halted")
	}
}

func TestConditionalBranches(t *testing.T) {
	// if (3 < 5) r0 = 1 else r0 = 2, using signed and unsigned forms.
	cases := []struct {
		a, b int32
		cc   isa.CC
		want uint64
	}{
		{3, 5, isa.CCLT, 1},
		{5, 3, isa.CCLT, 2},
		{-1, 1, isa.CCLT, 1},  // signed: -1 < 1
		{-1, 1, isa.CCULT, 2}, // unsigned: 0xffffffff > 1
		{7, 7, isa.CCEQ, 1},
		{7, 8, isa.CCNE, 1},
		{9, 9, isa.CCGE, 1},
		{2, 2, isa.CCUGT, 2},
	}
	for _, c := range cases {
		code := asm(
			fmt.Sprintf("movi r1, %d", c.a),
			fmt.Sprintf("movi r2, %d", c.b),
			"cmp32 r1, r2",
			fmt.Sprintf("jccs %s, +8", c.cc), // skip the else arm (movi=6 + jmps=2)
			"movi r0, 2",
			"jmps +6", // skip then arm
			"movi r0, 1",
			"hlt",
		)
		m, th := load(code, 0x100)
		if _, err := m.Run(th, 100); err != nil {
			t.Fatalf("%v %s %v: %v", c.a, c.cc, c.b, err)
		}
		if th.R[isa.R0] != c.want {
			t.Errorf("%d %s %d -> r0=%d, want %d", c.a, c.cc, c.b, th.R[isa.R0], c.want)
		}
	}
}

func TestSETCC(t *testing.T) {
	code := asm(
		"movi r1, 10",
		"cmpi32 r1, 10",
		"setcc r0, eq",
		"setcc r2, ne",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R0] != 1 || th.R[isa.R2] != 0 {
		t.Errorf("setcc: eq=%d ne=%d", th.R[isa.R0], th.R[isa.R2])
	}
}

func TestTrapDispatchAndRedirect(t *testing.T) {
	// Trap 5 doubles r0. Trap 9 redirects execution to a handler address,
	// the way syscall dispatch enters kernel code.
	handlerAddr := uint32(0x400)
	code := asm(
		"movi r0, 21",
		"trap 5",
		"trap 9",
		"hlt", // skipped by the redirect
	)

	handler := asm(
		"movi r3, 99",
		"hlt",
	)

	m, th := load(code, 0x100)
	m.Mem.WriteAt(handlerAddr, handler)
	m.Traps = trapTable{
		5: func(t *Thread) error { t.R[isa.R0] *= 2; return nil },
		9: func(t *Thread) error { t.IP = handlerAddr; return nil },
	}

	// Run returns after each TRAP, so the program takes three calls: up
	// to trap 5, trap 9 alone, and the handler up to its hlt.
	for i, want := range []int{2, 1, 2} {
		n, err := m.Run(th, 100)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("call %d ran %d instructions, want %d", i, n, want)
		}
	}
	if !th.Halted || th.R[isa.R0] != 42 || th.R[isa.R3] != 99 {
		t.Errorf("halted=%v r0=%d r3=%d", th.Halted, th.R[isa.R0], th.R[isa.R3])
	}
}

func TestFaults(t *testing.T) {
	// Unregistered trap.
	m, th := load(asm("trap 77"), 0x100)
	if _, err := m.Run(th, 10); err == nil {
		t.Error("unregistered trap ran")
	}
	// Undefined opcode.
	m, th = load([]byte{0xEE}, 0x100)
	if _, err := m.Run(th, 10); err == nil {
		t.Error("undefined opcode ran")
	}
	// A register field past sp (mov r0, r8) faults instead of indexing
	// past the register file.
	m, th = load([]byte{byte(isa.OpMOV), 0x80}, 0x100)
	if _, err := m.Run(th, 10); err == nil {
		t.Error("register r8 ran")
	}
	// Out-of-range store.
	code := asm(
		"movi r1, 1073741824",
		"st32 [r1], r0",
	)
	m, th = load(code, 0x100)
	if _, err := m.Run(th, 10); err == nil {
		t.Error("wild store ran")
	}
	// Stepping a halted thread.
	m, th = load(asm("hlt"), 0x100)
	if _, err := m.Run(th, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(th); err == nil {
		t.Error("halted thread stepped")
	}
}

func TestRunStepBudget(t *testing.T) {
	// An infinite loop must stop exactly at the step budget.
	code := asm("jmps -2")
	m, th := load(code, 0x100)
	n, err := m.Run(th, 1000)
	if err != nil || n != 1000 {
		t.Errorf("n=%d err=%v", n, err)
	}
	if th.Steps != 1000 {
		t.Errorf("Steps = %d", th.Steps)
	}
}

// Property: ADD32/SUB32/MUL32 agree with Go int32 arithmetic.
func TestALU32MatchesGoProperty(t *testing.T) {
	ops := []struct {
		op isa.Op
		f  func(a, b int32) int32
	}{
		{isa.OpADD32, func(a, b int32) int32 { return a + b }},
		{isa.OpSUB32, func(a, b int32) int32 { return a - b }},
		{isa.OpMUL32, func(a, b int32) int32 { return a * b }},
		{isa.OpAND32, func(a, b int32) int32 { return a & b }},
		{isa.OpXOR32, func(a, b int32) int32 { return a ^ b }},
	}
	for _, o := range ops {
		op, f := o.op, o.f
		check := func(a, b int32) bool {
			code := asm(
				fmt.Sprintf("movi r0, %d", a),
				fmt.Sprintf("movi r1, %d", b),
				fmt.Sprintf("%s r0, r1", op.Name()),
				"hlt",
			)
			m, th := load(code, 0x100)
			if _, err := m.Run(th, 10); err != nil {
				return false
			}
			return int64(th.R[isa.R0]) == int64(f(a, b))
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", op.Name(), err)
		}
	}
}

// Property: CMP32 + SETCC matches Go comparisons for every condition code.
func TestCompareMatchesGoProperty(t *testing.T) {
	check := func(a, b int32, ccRaw uint8) bool {
		cc := isa.CC(ccRaw % isa.NumCC)
		code := asm(
			fmt.Sprintf("movi r1, %d", a),
			fmt.Sprintf("movi r2, %d", b),
			"cmp32 r1, r2",
			fmt.Sprintf("setcc r0, %s", cc),
			"hlt",
		)
		m, th := load(code, 0x100)
		if _, err := m.Run(th, 10); err != nil {
			return false
		}
		var want bool
		ua, ub := uint32(a), uint32(b)
		switch cc {
		case isa.CCEQ:
			want = a == b
		case isa.CCNE:
			want = a != b
		case isa.CCLT:
			want = a < b
		case isa.CCLE:
			want = a <= b
		case isa.CCGT:
			want = a > b
		case isa.CCGE:
			want = a >= b
		case isa.CCULT:
			want = ua < ub
		case isa.CCULE:
			want = ua <= ub
		case isa.CCUGT:
			want = ua > ub
		case isa.CCUGE:
			want = ua >= ub
		}
		return (th.R[isa.R0] == 1) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
