package vm

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"gosplice/internal/isa"
)

// warmLoop returns a position-independent endless loop over the hot
// instruction mix: ALU, load, store, compare, call, push/pop, return
// and a backward jump.
func warmLoop() []byte {
	code := isa.ADDI64(nil, isa.R1, 1)
	code = isa.MOVI(code, isa.R2, 0x8000)
	code = isa.Store(code, isa.OpST64, isa.R2, 0, isa.R1)
	code = isa.Load(code, isa.OpLD64, isa.R3, isa.R2, 0)
	code = isa.CMP(code, isa.OpCMP64, isa.R1, isa.R3)
	callAt := len(code)
	code = isa.CALL(code, 0)
	code = isa.JMP(code, 0)
	isa.PatchRel32(code, len(code)-4, -int32(len(code)))
	isa.PatchRel32(code, callAt+1, int32(len(code)-(callAt+5)))
	code = isa.PUSH(code, isa.R1)
	code = isa.POP(code, isa.R4)
	return isa.RET(code)
}

// TestStepAllocsZero is the interpreter's allocation gate: a warm loop
// stepped through Run allocates nothing. Step decodes an uncacheable
// instruction into a stack isa.Insn; if that value escaped to the heap,
// every such decode would allocate. The loop starts 3 bytes before a page
// boundary, so its first instruction straddles the boundary and takes
// that path on every turn, and the rest hit the decode cache. The race
// runtime's shadow memory lives outside the Go heap, so the gate holds
// under -race too.
func TestStepAllocsZero(t *testing.T) {
	addr := uint32(PageSize - 3)
	m, th := load(warmLoop(), addr)
	if _, err := m.Run(th, 1000); err != nil {
		t.Fatal(err)
	}
	var n int
	var err error
	allocs := testing.AllocsPerRun(100, func() { n, err = m.Run(th, 1000) })
	if err != nil || n != 1000 {
		t.Fatalf("n=%d err=%v, want 1000 steps", n, err)
	}
	if allocs != 0 {
		t.Errorf("warm Run allocates %.1f times per 1000 steps, want 0", allocs)
	}
}

// TestSelfModifyingCodeThroughStep: a guest program executes an
// instruction, stores a different instruction over it, and executes it
// again. Step reads the decode cache in place, so the store must
// invalidate the entry the first execution filled.
func TestSelfModifyingCodeThroughStep(t *testing.T) {
	const base = 0x100
	old := isa.Nop(isa.MOVI(nil, isa.R0, 1), 2)
	repl := isa.Nop(isa.ADDI64(nil, isa.R0, 41), 2)
	if len(old) != 8 || len(repl) != 8 {
		t.Fatalf("patch site is %d bytes, replacement %d; want 8 each", len(old), len(repl))
	}
	prologue := func(target uint32) []byte {
		code := isa.MOVI(nil, isa.R2, int32(target))
		code = isa.MOVI64(code, isa.R3, int64(binary.LittleEndian.Uint64(repl)))
		return isa.MOVI(code, isa.R4, 0)
	}
	target := uint32(base + len(prologue(0)))
	code := append(prologue(target), old...)
	code = isa.CMPI(code, isa.OpCMPI64, isa.R4, 0)
	code = isa.JCCS(code, isa.CCNE, 0)
	jccEnd := len(code)
	code = isa.Store(code, isa.OpST64, isa.R2, 0, isa.R3)
	code = isa.ADDI64(code, isa.R4, 1)
	code = isa.JMP(code, 0)
	isa.PatchRel32(code, len(code)-4, int32(target-base)-int32(len(code)))
	isa.PatchRel8(code, jccEnd-1, int8(len(code)-jccEnd))
	code = isa.HLT(code)

	m, th := load(code, base)
	if _, err := m.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if !th.Halted {
		t.Fatal("program did not halt")
	}
	// MOVI r0, 1 on the first pass, then the stored ADDI64 r0, 41.
	if th.R[isa.R0] != 42 {
		t.Errorf("r0 = %d, want 42 (1 means the stale cached instruction ran)", th.R[isa.R0])
	}
}

// TestTrapFaultSurvivesCacheRefill: Step points into the decode cache
// entry of the TRAP it is executing. A handler whose decode refills that
// same slot (an offset dcSize bytes on, same off & dcMask) must not
// change the trap number or IP the resulting fault reports.
func TestTrapFaultSurvivesCacheRefill(t *testing.T) {
	const ip = 0x100
	const alias = ip + dcSize
	m, th := load(isa.HLT(isa.TRAP(nil, 7)), ip)
	m.Mem.WriteAt(alias, isa.TRAP(nil, 9))
	m.Handle(7, func(*Thread) error {
		in, err := m.Mem.DecodeAt(alias)
		if err != nil || in.Op != isa.OpTRAP || in.Imm != 9 {
			t.Errorf("decode of the aliasing slot: %v imm=%d err=%v", in.Op, in.Imm, err)
		}
		return errors.New("handler failed")
	})
	_, err := m.Run(th, 10)
	var f *Fault
	if !asFault(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.IP != ip || !strings.HasPrefix(f.Reason, "trap 7: handler failed") {
		t.Errorf("fault = %v, want trap 7 at %#x", f, ip)
	}
}
