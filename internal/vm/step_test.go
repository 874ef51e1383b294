package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gosplice/internal/isa"
)

// warmLoop returns a position-independent endless loop over the hot
// instruction mix: ALU, load, store, compare, call, push/pop, return
// and a backward jump.
func warmLoop() []byte {
	return asm(
		"addi64 r1, 1",
		"movi r2, 0x8000",
		"st64 [r2], r1",
		"ld64 r3, [r2]",
		"cmp64 r1, r3",
		"call +5", // to the push
		"jmp -36", // to the start
		"push r1",
		"pop r4",
		"ret",
	)
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
	old := asm("movi r0, 1", "nop2")
	repl := asm("addi64 r0, 41", "nop2")
	if len(old) != 8 || len(repl) != 8 {
		t.Fatalf("patch site is %d bytes, replacement %d; want 8 each", len(old), len(repl))
	}
	prologue := func(target uint32) []byte {
		return asm(
			fmt.Sprintf("movi r2, %d", target),
			fmt.Sprintf("movi64 r3, %d", int64(binary.LittleEndian.Uint64(repl))),
			"movi r4, 0",
		)
	}
	target := uint32(base + len(prologue(0)))
	code := append(prologue(target), old...)
	code = append(code, asm(
		"cmpi64 r4, 0",
		"jccs ne, +17", // to the hlt
		"st64 [r2], r3",
		"addi64 r4, 1",
		fmt.Sprintf("jmp %+d", int(target-base)-56), // to old; the jmp ends at 56
		"hlt",
	)...)

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
	m, th := load(asm("trap 7", "hlt"), ip)
	m.Mem.WriteAt(alias, asm("trap 9"))
	m.Traps = trapTable{7: func(*Thread) error {
		in, err := m.Mem.DecodeAt(alias)
		if err != nil || in.Op != isa.OpTRAP || in.Imm != 9 {
			t.Errorf("decode of the aliasing slot: %v imm=%d err=%v", in.Op, in.Imm, err)
		}
		return errors.New("handler failed")
	}}
	_, err := m.Run(th, 10)
	var f *Fault
	if !asFault(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.IP != ip || !strings.HasPrefix(f.Reason, "trap 7: handler failed") {
		t.Errorf("fault = %v, want trap 7 at %#x", f, ip)
	}
}

// TestStraddlingInsnSeesWrites: an instruction across a page boundary
// is cached like any other, so a write to either of its pages must make
// the next Run and the next DecodeAt decode it again. MOVI64 is 10
// bytes; at PageSize-4 its opcode, register and first two immediate
// bytes lie in page 0 and the other six in page 1.
func TestStraddlingInsnSeesWrites(t *testing.T) {
	const off = PageSize - 4
	imm := uint64(0x1122334455667788)
	m, th := load(asm(fmt.Sprintf("movi64 r0, %d", int64(imm)), "hlt"), off)
	run := func() uint64 {
		t.Helper()
		th.IP, th.Halted = off, false
		if n, err := m.Run(th, 10); err != nil || n != 2 || !th.Halted {
			t.Fatalf("n=%d err=%v halted=%v, want the movi64 and the hlt", n, err, th.Halted)
		}
		return th.R[isa.R0]
	}
	if got := run(); got != imm {
		t.Fatalf("r0 = %#x, want %#x", got, imm)
	}
	if e := m.Mem.sc[0]; int(e.off) != off || e.in.Op != isa.OpMOVI64 {
		t.Fatalf("straddler cache slot holds %v at %#x, want the movi64 at %#x", e.in.Op, e.off, off)
	}
	if got := run(); got != imm {
		t.Fatalf("cached run: r0 = %#x, want %#x", got, imm)
	}
	// Immediate byte i sits at off+2+i: bytes 0 and 1 in page 0, 2..7
	// in page 1.
	for _, c := range []struct {
		page int
		byte int
	}{{1, 4}, {0, 1}, {1, 7}, {0, 0}} {
		for _, via := range []string{"Run", "DecodeAt"} {
			b := byte(0xA0 + c.byte + len(via))
			m.Mem.SetByte(uint32(off+2+c.byte), b)
			imm = imm&^(0xFF<<(8*c.byte)) | uint64(b)<<(8*c.byte)
			var got uint64
			if via == "Run" {
				got = run()
			} else {
				in, err := m.Mem.DecodeAt(off)
				if err != nil {
					t.Fatal(err)
				}
				got = uint64(in.Imm)
			}
			if got != imm {
				t.Errorf("after a write to immediate byte %d (page %d), %s sees %#x, want %#x", c.byte, c.page, via, got, imm)
			}
		}
	}
	if got := run(); got != imm {
		t.Errorf("final run: r0 = %#x, want %#x", got, imm)
	}
}
