package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gosplice/internal/isa"
	"gosplice/internal/vm"
)

// heapModel is the reference the allocator is checked against. It keeps
// only the live blocks; its free list is the gaps between them, sorted
// and coalesced by construction, and it allocates first fit over those
// gaps.
type heapModel struct {
	base, end uint32
	live      map[uint32]uint32
}

func (m *heapModel) freeList() []span {
	addrs := make([]uint32, 0, len(m.live))
	for a := range m.live {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	var out []span
	at := m.base
	for _, a := range addrs {
		if a > at {
			out = append(out, span{at, a - at})
		}
		at = a + m.live[a]
	}
	if at < m.end {
		out = append(out, span{at, m.end - at})
	}
	return out
}

// alloc rounds in 64 bits, so a request near 4 GiB cannot wrap to a
// small block.
func (m *heapModel) alloc(size uint32) uint32 {
	rounded := max(heapAlign, (uint64(size)+heapAlign-1)&^(heapAlign-1))
	for _, s := range m.freeList() {
		if uint64(s.size) >= rounded {
			m.live[s.addr] = uint32(rounded)
			return s.addr
		}
	}
	return 0
}

// hugeSizes are requests larger than any test arena, up to ones whose
// rounding to heapAlign overflows 32 bits.
var hugeSizes = []uint32{4097, 1 << 31, 0xFFFFFFF8, 0xFFFFFFF9, 0xFFFFFFFF}

// TestHeapMatchesModel runs seeded alloc/free sequences (frees of live
// blocks, of addresses never allocated, and of blocks already freed, and
// requests larger than the arena) against heap and heapModel: after every
// step both must return the same address or error and hold the same free
// list. Then it drives the kmalloc and shadow_attach traps with sizes
// that do not fit in 32 bits, which must be refused, not truncated.
func TestHeapMatchesModel(t *testing.T) {
	const base, end = 0x10000, 0x10000 + 4096
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHeap(base, end)
		m := &heapModel{base: base, end: end, live: map[uint32]uint32{}}
		var freed []uint32
		for step := 0; step < 2000; step++ {
			what := "alloc"
			switch r := rng.Intn(100); {
			case r < 55:
				size := uint32(rng.Intn(300))
				if r < 3 {
					size = hugeSizes[rng.Intn(len(hugeSizes))]
				}
				if got, want := h.alloc(size), m.alloc(size); got != want {
					t.Fatalf("seed %d step %d: alloc(%d) = %#x, model %#x", seed, step, size, got, want)
				}
			default:
				var addr uint32
				switch {
				case r < 90 && len(m.live) > 0:
					what = "free"
					addrs := make([]uint32, 0, len(m.live))
					for a := range m.live {
						addrs = append(addrs, a)
					}
					slices.Sort(addrs)
					addr = addrs[rng.Intn(len(addrs))]
					delete(m.live, addr)
					freed = append(freed, addr)
				case r < 95 && len(freed) > 0:
					what = "double free"
					addr = freed[rng.Intn(len(freed))]
				default:
					what = "free of an unallocated address"
					addr = base + uint32(rng.Intn(end-base))
				}
				_, live := m.live[addr]
				err := h.freeBlock(addr)
				switch {
				case what == "free" && err != nil:
					t.Fatalf("seed %d step %d: free(%#x): %v", seed, step, addr, err)
				case what != "free" && !live:
					want := fmt.Sprintf("kernel: kfree of unallocated address %#x", addr)
					if err == nil || err.Error() != want {
						t.Fatalf("seed %d step %d: %s (%#x): err = %v, want %q", seed, step, what, addr, err, want)
					}
				case what != "free" && live:
					// The address was reused by a later alloc.
					if err != nil {
						t.Fatalf("seed %d step %d: free of live %#x: %v", seed, step, addr, err)
					}
					delete(m.live, addr)
				}
			}
			if want := m.freeList(); !slices.Equal(h.free, want) {
				t.Fatalf("seed %d step %d (%s): free list %v, model %v", seed, step, what, h.free, want)
			}
		}
	}

	// The trap ABI passes sizes in 64-bit registers.
	k := bootTest(t)
	trap := func(num uint16, r0, r1, r2 uint64) uint64 {
		t.Helper()
		if err := k.WriteMem(HeapEnd, isa.Encode(nil, isa.Insn{Op: isa.OpTRAP, Imm: int64(num)})); err != nil {
			t.Fatal(err)
		}
		th := vm.Thread{IP: HeapEnd}
		th.R[isa.R0], th.R[isa.R1], th.R[isa.R2] = r0, r1, r2
		k.Lock()
		defer k.Unlock()
		if err := k.M.Step(&th); err != nil {
			t.Fatalf("trap %d: %v", num, err)
		}
		return th.R[isa.R0]
	}
	const tooBig = 1<<32 + 16
	for _, size := range []uint64{tooBig, 0xFFFFFFFF, 1<<64 - 1} {
		if addr := trap(TrapKmalloc, size, 0, 0); addr != 0 {
			t.Errorf("kmalloc(%#x) = %#x, want 0", size, addr)
		}
	}
	if addr := trap(TrapShadowAtt, 0x1234, 1, tooBig); addr != 0 {
		t.Errorf("shadow_attach of %#x bytes = %#x, want 0", uint64(tooBig), addr)
	}
	if addr := trap(TrapShadowGet, 0x1234, 1, 0); addr != 0 {
		t.Errorf("refused shadow_attach left a binding at %#x", addr)
	}
	a, b := trap(TrapKmalloc, 16, 0, 0), trap(TrapKmalloc, 16, 0, 0)
	if a == 0 || b == 0 || a == b {
		t.Errorf("two kmalloc(16) after the refusals = %#x, %#x, want two distinct blocks", a, b)
	}
}
