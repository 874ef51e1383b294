package kernel

import (
	"fmt"
	"slices"
	"sort"
)

// heap is a first-fit allocator over a fixed region of machine memory.
// Block metadata is host-side; guest code sees only addresses, reached
// through the kmalloc/kfree traps.
type heap struct {
	base, end uint32
	// free spans, address-sorted, coalesced.
	free []span
	// live allocations.
	live map[uint32]uint32
}

type span struct{ addr, size uint32 }

func newHeap(base, end uint32) *heap {
	return &heap{
		base: base, end: end,
		free: []span{{base, end - base}},
		live: map[uint32]uint32{},
	}
}

const heapAlign = 8

// alloc returns the address of a fresh size-byte block, or 0 when the
// heap is exhausted or the request is larger than the whole arena
// (kmalloc returning NULL).
func (h *heap) alloc(size uint32) uint32 {
	if size > h.end-h.base {
		return 0
	}
	if size == 0 {
		size = heapAlign
	}
	size = (size + heapAlign - 1) &^ (heapAlign - 1)
	for i, s := range h.free {
		if s.size >= size {
			addr := s.addr
			if s.size == size {
				h.free = append(h.free[:i], h.free[i+1:]...)
			} else {
				h.free[i] = span{s.addr + size, s.size - size}
			}
			h.live[addr] = size
			return addr
		}
	}
	return 0
}

// freeBlock releases a block returned by alloc, merging it in place
// with the free spans that end where it starts and start where it ends.
func (h *heap) freeBlock(addr uint32) error {
	size, ok := h.live[addr]
	if !ok {
		return fmt.Errorf("kernel: kfree of unallocated address %#x", addr)
	}
	delete(h.live, addr)
	i := sort.Search(len(h.free), func(j int) bool { return h.free[j].addr > addr })
	joinPrev := i > 0 && h.free[i-1].addr+h.free[i-1].size == addr
	joinNext := i < len(h.free) && addr+size == h.free[i].addr
	switch {
	case joinPrev && joinNext:
		h.free[i-1].size += size + h.free[i].size
		h.free = slices.Delete(h.free, i, i+1)
	case joinPrev:
		h.free[i-1].size += size
	case joinNext:
		h.free[i] = span{addr, size + h.free[i].size}
	default:
		h.free = slices.Insert(h.free, i, span{addr, size})
	}
	return nil
}

// clone deep-copies the allocator state, for kernel snapshots.
func (h *heap) clone() *heap {
	n := &heap{
		base: h.base, end: h.end,
		free: append([]span(nil), h.free...),
		live: make(map[uint32]uint32, len(h.live)),
	}
	for addr, size := range h.live {
		n.live[addr] = size
	}
	return n
}

// inUse reports the number of live blocks and bytes.
func (h *heap) inUse() (blocks int, bytes uint32) {
	for _, size := range h.live {
		blocks++
		bytes += size
	}
	return
}
