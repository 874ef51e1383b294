package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
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

func (m *heapModel) alloc(size uint32) uint32 {
	size = max(heapAlign, (size+heapAlign-1)&^(heapAlign-1))
	for _, s := range m.freeList() {
		if s.size >= size {
			m.live[s.addr] = size
			return s.addr
		}
	}
	return 0
}

// TestHeapMatchesModel runs seeded alloc/free sequences (frees of live
// blocks, of addresses never allocated, and of blocks already freed)
// against heap and heapModel: after every step both must return the same
// address or error and hold the same free list.
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
}
