package vm

import (
	"fmt"
	"testing"
	"testing/quick"

	"gosplice/internal/isa"
)

// runALU2 executes a single two-register op with the given operands.
func runALU2(t *testing.T, op isa.Op, a, b int64) (uint64, error) {
	t.Helper()
	code := asm(
		fmt.Sprintf("movi64 r0, %d", a),
		fmt.Sprintf("movi64 r1, %d", b),
		fmt.Sprintf("%s r0, r1", op.Name()),
		"hlt",
	)
	m, th := load(code, 0x100)
	_, err := m.Run(th, 10)
	return th.R[isa.R0], err
}

func runALU1(t *testing.T, op isa.Op, a int64) uint64 {
	t.Helper()
	code := asm(
		fmt.Sprintf("movi64 r0, %d", a),
		fmt.Sprintf("%s r0", op.Name()),
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 10); err != nil {
		t.Fatal(err)
	}
	return th.R[isa.R0]
}

// sext32 mirrors the canonical form 32-bit ops produce.
func sx32(v uint32) uint64 { return uint64(int64(int32(v))) }

// TestEveryALUOpAgainstGo runs every two-register ALU opcode against its
// Go reference semantics over a grid of interesting operands.
func TestEveryALUOpAgainstGo(t *testing.T) {
	operands := []int64{0, 1, -1, 2, -2, 7, 31, 32, 63, 64, 127,
		0x7fffffff, -0x80000000, 0xffffffff, 1 << 40, -(1 << 40),
		0x7fffffffffffffff, -0x8000000000000000}

	type ref struct {
		op isa.Op
		f  func(a, b uint64) (uint64, bool) // ok=false means faulting case
	}
	refs := []ref{
		{isa.OpADD32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) + uint32(b)), true }},
		{isa.OpSUB32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) - uint32(b)), true }},
		{isa.OpMUL32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) * uint32(b)), true }},
		{isa.OpDIV32S, func(a, b uint64) (uint64, bool) {
			x, y := int32(a), int32(b)
			if y == 0 || (x == -1<<31 && y == -1) {
				return 0, false
			}
			return sx32(uint32(x / y)), true
		}},
		{isa.OpDIV32U, func(a, b uint64) (uint64, bool) {
			if uint32(b) == 0 {
				return 0, false
			}
			return sx32(uint32(a) / uint32(b)), true
		}},
		{isa.OpMOD32S, func(a, b uint64) (uint64, bool) {
			x, y := int32(a), int32(b)
			if y == 0 || (x == -1<<31 && y == -1) {
				return 0, false
			}
			return sx32(uint32(x % y)), true
		}},
		{isa.OpMOD32U, func(a, b uint64) (uint64, bool) {
			if uint32(b) == 0 {
				return 0, false
			}
			return sx32(uint32(a) % uint32(b)), true
		}},
		{isa.OpAND32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) & uint32(b)), true }},
		{isa.OpOR32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) | uint32(b)), true }},
		{isa.OpXOR32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) ^ uint32(b)), true }},
		{isa.OpSHL32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) << (b & 31)), true }},
		{isa.OpSHR32, func(a, b uint64) (uint64, bool) { return sx32(uint32(a) >> (b & 31)), true }},
		{isa.OpSAR32, func(a, b uint64) (uint64, bool) { return uint64(int64(int32(a)) >> (b & 31)), true }},

		{isa.OpADD64, func(a, b uint64) (uint64, bool) { return a + b, true }},
		{isa.OpSUB64, func(a, b uint64) (uint64, bool) { return a - b, true }},
		{isa.OpMUL64, func(a, b uint64) (uint64, bool) { return a * b, true }},
		{isa.OpDIV64S, func(a, b uint64) (uint64, bool) {
			if b == 0 || (int64(a) == -1<<63 && int64(b) == -1) {
				return 0, false
			}
			return uint64(int64(a) / int64(b)), true
		}},
		{isa.OpDIV64U, func(a, b uint64) (uint64, bool) {
			if b == 0 {
				return 0, false
			}
			return a / b, true
		}},
		{isa.OpMOD64S, func(a, b uint64) (uint64, bool) {
			if b == 0 || (int64(a) == -1<<63 && int64(b) == -1) {
				return 0, false
			}
			return uint64(int64(a) % int64(b)), true
		}},
		{isa.OpMOD64U, func(a, b uint64) (uint64, bool) {
			if b == 0 {
				return 0, false
			}
			return a % b, true
		}},
		{isa.OpAND64, func(a, b uint64) (uint64, bool) { return a & b, true }},
		{isa.OpOR64, func(a, b uint64) (uint64, bool) { return a | b, true }},
		{isa.OpXOR64, func(a, b uint64) (uint64, bool) { return a ^ b, true }},
		{isa.OpSHL64, func(a, b uint64) (uint64, bool) { return a << (b & 63), true }},
		{isa.OpSHR64, func(a, b uint64) (uint64, bool) { return a >> (b & 63), true }},
		{isa.OpSAR64, func(a, b uint64) (uint64, bool) { return uint64(int64(a) >> (b & 63)), true }},
	}

	for _, r := range refs {
		for _, a := range operands {
			for _, b := range operands {
				want, ok := r.f(uint64(a), uint64(b))
				got, err := runALU2(t, r.op, a, b)
				if !ok {
					if err == nil {
						t.Errorf("%s(%#x,%#x): expected fault", r.op.Name(), a, b)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s(%#x,%#x): %v", r.op.Name(), a, b, err)
					continue
				}
				if got != want {
					t.Errorf("%s(%#x,%#x) = %#x, want %#x", r.op.Name(), a, b, got, want)
				}
			}
		}
	}
}

func negU64(v uint64) uint64 { return -v }

func TestOneRegisterOps(t *testing.T) {
	cases := []struct {
		op   isa.Op
		in   int64
		want uint64
	}{
		{isa.OpNEG32, 5, sx32(^uint32(5) + 1)},
		{isa.OpNEG32, -0x80000000, sx32(0x80000000)},
		{isa.OpNOT32, 0, sx32(0xffffffff)},
		{isa.OpZEXT32, -1, 0xffffffff},
		{isa.OpNEG64, 5, negU64(5)},
		{isa.OpNOT64, 0, ^uint64(0)},
		{isa.OpSEXT8, 0x80, negU64(128)},
		{isa.OpSEXT8, 0x7f, 0x7f},
		{isa.OpSEXT16, 0x8000, negU64(32768)},
		{isa.OpSEXT32, 0x80000000, sx32(0x80000000)},
		{isa.OpZEXT8, -1, 0xff},
		{isa.OpZEXT16, -1, 0xffff},
	}
	for _, c := range cases {
		if got := runALU1(t, c.op, c.in); got != c.want {
			t.Errorf("%s(%#x) = %#x, want %#x", c.op.Name(), c.in, got, c.want)
		}
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	// A jump table: JMPR through a register; CALLR for the call flavor.
	const fnAddr = 0x300
	code := asm(
		fmt.Sprintf("movi r2, %d", fnAddr),
		"callr r2",
		fmt.Sprintf("movi r3, %d", fnAddr),
		"jmpr r3",
		"movi r0, 999", // unreached
	)

	fn := asm(
		"movi r0, 42",
		"ret",
	)

	m, th := load(code, 0x100)
	m.Mem.WriteAt(fnAddr, fn)
	// The JMPR lands at fn; its RET pops garbage unless we prime the
	// stack: push a HLT address first.
	const hltAddr = 0x400
	m.Mem.SetByte(hltAddr, byte(isa.OpHLT))
	th.SetSP(uint32(m.Mem.Len()) - 8)
	m.Mem.StoreLE(uint32(m.Mem.Len()-8), 8, hltAddr)

	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R0] != 42 {
		t.Errorf("r0 = %d", th.R[isa.R0])
	}
	if !th.Halted {
		t.Error("did not reach the HLT through the primed return")
	}
}

func TestMOVI64RoundTrip(t *testing.T) {
	f := func(v int64) bool {
		code := asm(
			fmt.Sprintf("movi64 r4, %d", v),
			"hlt",
		)
		m, th := load(code, 0x100)
		if _, err := m.Run(th, 10); err != nil {
			return false
		}
		return th.R[isa.R4] == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLowGuardFaults(t *testing.T) {
	code := asm(
		"movi r1, 0x10", // below the guard
		"ld32s r0, [r1]",
	)
	m, th := load(code, 0x2000)
	m.LowGuard = 0x1000
	if _, err := m.Run(th, 10); err == nil {
		t.Error("guard-page load succeeded")
	}
	// Execution below the guard also faults.
	th2 := &Thread{IP: 0x10}
	th2.SetSP(uint32(m.Mem.Len()))
	if err := m.Step(th2); err == nil {
		t.Error("guard-page execution succeeded")
	}
}

func TestCMP64AndSETCCWidths(t *testing.T) {
	// 64-bit comparison distinguishes values equal in their low 32 bits.
	code := asm(
		fmt.Sprintf("movi64 r1, %d", 1<<40|5),
		"movi64 r2, 5",
		"cmp64 r1, r2",
		"setcc r0, eq",
		"cmp32 r1, r2",
		"setcc r3, eq",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 20); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R0] != 0 {
		t.Error("cmp64 treated distinct values as equal")
	}
	if th.R[isa.R3] != 1 {
		t.Error("cmp32 failed to compare low words")
	}
}

func TestCMPI64Semantics(t *testing.T) {
	code := asm(
		"movi64 r1, -5",
		"cmpi64 r1, -5",
		"setcc r0, eq",
		"hlt",
	)
	m, th := load(code, 0x100)
	if _, err := m.Run(th, 10); err != nil {
		t.Fatal(err)
	}
	if th.R[isa.R0] != 1 {
		t.Error("cmpi64 -5 != -5")
	}
}
