package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"gosplice/internal/isa"
)

// Machine memory is paged so that kernels can be cloned copy-on-write:
// a clone shares every page with its parent and copies a page privately
// only when someone writes it. The evaluation pipeline clones one booted
// template kernel per patch; before paging, each clone paid a full
// memory copy (16 MB) up front — the dominant cost of the whole parallel
// run. With COW a clone costs one copy of its page table (32 KiB of
// pointers for 16 MB) and thereafter only the pages it actually dirties.
const (
	// PageShift selects 4 KiB pages: small enough that a patch's dirty
	// set (a few stacks, some heap, the module area) stays in the tens
	// of pages, large enough that the page table is trivial.
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

// page is one page of memory. owner is the generation of the one Memory
// that may write it in place; every other Memory holding the page copies
// it before writing. A page's owner is set before the page is published
// and never changes, so memories sharing a page read it without
// synchronization.
type page struct {
	b     [PageSize]byte
	owner uint64
}

// zeroPage backs every never-written page of a fresh Memory. It is
// shared by all machines in the process and must never be written: no
// Memory has generation 0, so writes always fault into a private copy.
var zeroPage = new(page)

// generations hands out memory generations, starting at 1.
var generations atomic.Uint64

// maxInsnWindow bounds the byte window instruction decoding needs: the
// longest SIM32 encoding is 10 bytes (opcode + reg + 8-byte immediate).
const maxInsnWindow = 16

// Memory is byte-addressed machine memory as an array of pages with
// copy-on-write semantics. The zero value is not usable; construct with
// NewMemory.
//
// Memory performs no internal locking: like the rest of Machine, callers
// serialize access (the kernel's machine lock). The one cross-instance
// invariant is that a page owned by another generation is never written
// in place by this Memory — it copies the page first — so two clones may
// read the same underlying page concurrently without synchronization.
type Memory struct {
	// size bounds every access. The last page may extend past it; those
	// bytes are never read or written.
	size  int
	pages []*page
	// owner is this memory's generation: pages whose owner equals it are
	// exclusively ours, writable in place.
	owner uint64

	// Decoded-instruction cache. dc is a direct-mapped cache of decoded
	// instructions keyed by offset; gen holds a per-page write generation
	// so any write to a page exactly invalidates that page's cached
	// decodes (self-modifying code — trampoline splice and undo — stays
	// correct). Both are allocated lazily on the first decode, so
	// memories that never execute pay only for sc, which holds the
	// instructions that straddle a page boundary, each checked against
	// both pages' generations: 768 bytes inside the Memory cost less
	// than an allocation of their own in every clone that executes.
	gen []uint32
	dc  *[dcSize]dcEntry
	sc  [scSize]scEntry
}

// The decode cache is direct-mapped by the low offset bits: hot loops
// are small, and a conflict costs only a re-decode.
const (
	dcSize = 2048
	dcMask = dcSize - 1
)

type dcEntry struct {
	off int32 // instruction offset (entries with in.Len == 0 are empty)
	gen uint32
	in  isa.Insn
}

// The straddler cache is direct-mapped by the first page's number:
// straight-line code has at most one instruction across each boundary.
const (
	scSize = 16
	scMask = scSize - 1
)

type scEntry struct {
	off  int32     // instruction offset (entries with in.Len == 0 are empty)
	gens [2]uint32 // the generations of the page at off and the next one
	in   isa.Insn
}

// NewMemory creates an all-zero memory of the given size. No backing
// bytes are allocated up front: every page starts as a reference to the
// shared zero page and is materialized on first write, so a large,
// mostly-untouched machine costs only its page table.
func NewMemory(size int) *Memory {
	m := &Memory{
		size:  size,
		pages: make([]*page, (size+PageSize-1)>>PageShift),
		owner: generations.Add(1),
	}
	for i := range m.pages {
		m.pages[i] = zeroPage
	}
	return m
}

// Len returns the memory size in bytes.
func (m *Memory) Len() int { return m.size }

// Clone returns a copy-on-write snapshot. Every page becomes shared
// between parent and clone (including by the parent: its next write to a
// page also faults a private copy, so the snapshot is immutable from
// both sides). Cost is one page-table copy, independent of memory size.
func (m *Memory) Clone() *Memory { return m.Truncate(m.size) }

// Truncate returns a copy-on-write snapshot of the first n bytes, sharing
// pages like Clone. Run-pre matching tests use it to model a machine
// whose memory ends mid-function. Both sides take fresh generations, so
// every page either holds becomes shared at once.
func (m *Memory) Truncate(n int) *Memory {
	if n < 0 || n > m.size {
		panic(fmt.Sprintf("vm: Truncate(%d) outside memory of %d bytes", n, m.size))
	}
	m.owner = generations.Add(1)
	return &Memory{
		size:  n,
		pages: slices.Clone(m.pages[:(n+PageSize-1)>>PageShift]),
		owner: generations.Add(1),
	}
}

// writable returns page i as a private, in-place-writable page,
// faulting a copy if another generation owns it.
func (m *Memory) writable(i int) *page {
	p := m.pages[i]
	if p.owner == m.owner {
		return p
	}
	q := &page{b: p.b, owner: m.owner}
	m.pages[i] = q
	return q
}

// bump records a write to page i for decode-cache invalidation. gen is
// only materialized alongside the cache, so memories that never execute
// skip the bookkeeping entirely.
func (m *Memory) bump(i int) {
	if m.gen != nil {
		m.gen[i]++
	}
}

// Byte reads one byte. Callers are expected to have bounds-checked;
// out-of-range addresses panic like a slice index would.
func (m *Memory) Byte(addr uint32) byte {
	if int(addr) >= m.size {
		panic(fmt.Sprintf("vm: Byte(%#x) outside memory of %d bytes", addr, m.size))
	}
	return m.pages[addr>>PageShift].b[addr&pageMask]
}

// SetByte writes one byte, faulting the page private if shared.
func (m *Memory) SetByte(addr uint32, v byte) {
	if int(addr) >= m.size {
		panic(fmt.Sprintf("vm: SetByte(%#x) outside memory of %d bytes", addr, m.size))
	}
	i := int(addr >> PageShift)
	m.writable(i).b[addr&pageMask] = v
	m.bump(i)
}

// ReadAt fills dst with the bytes at addr. The range must lie inside
// memory.
func (m *Memory) ReadAt(dst []byte, addr uint32) {
	if int64(addr)+int64(len(dst)) > int64(m.size) {
		panic(fmt.Sprintf("vm: ReadAt(%#x, %d) outside memory of %d bytes", addr, len(dst), m.size))
	}
	for len(dst) > 0 {
		n := copy(dst, m.pages[addr>>PageShift].b[addr&pageMask:])
		dst = dst[n:]
		addr += uint32(n)
	}
}

// ReadBytes is ReadAt into a fresh slice.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	m.ReadAt(out, addr)
	return out
}

// WriteAt copies src into memory at addr, faulting pages private as
// needed. The range must lie inside memory.
func (m *Memory) WriteAt(addr uint32, src []byte) {
	if int64(addr)+int64(len(src)) > int64(m.size) {
		panic(fmt.Sprintf("vm: WriteAt(%#x, %d) outside memory of %d bytes", addr, len(src), m.size))
	}
	for len(src) > 0 {
		i := int(addr >> PageShift)
		n := copy(m.writable(i).b[addr&pageMask:], src)
		m.bump(i)
		src = src[n:]
		addr += uint32(n)
	}
}

// ZeroRange zeroes n bytes at addr. Pages wholly covered by the range
// (the last page counts as covered when the range reaches the end of
// memory) are re-pointed at the shared zero page instead of being
// scrubbed, so zeroing large extents (module unload, kzalloc of big
// blocks) is O(pages), and a clone's zeroed pages cost no private memory
// at all.
func (m *Memory) ZeroRange(addr uint32, n uint32) {
	if int64(addr)+int64(n) > int64(m.size) {
		panic(fmt.Sprintf("vm: ZeroRange(%#x, %d) outside memory of %d bytes", addr, n, m.size))
	}
	for n > 0 {
		i := int(addr >> PageShift)
		off := addr & pageMask
		step := min(n, PageSize-off)
		if off == 0 && (step == PageSize || int(addr+step) == m.size) {
			m.pages[i] = zeroPage
		} else {
			clear(m.writable(i).b[off : off+step])
		}
		m.bump(i)
		addr += step
		n -= step
	}
}

// LoadLE reads size bytes (1..8) at addr as a little-endian unsigned
// value. The range must lie inside memory.
func (m *Memory) LoadLE(addr uint32, size int) uint64 {
	off := int(addr & pageMask)
	pg := &m.pages[addr>>PageShift].b
	if off+size <= PageSize {
		switch size {
		case 1:
			return uint64(pg[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(pg[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg[off:]))
		case 8:
			return binary.LittleEndian.Uint64(pg[off:])
		}
	}
	// Page-straddling (or odd-size) access: assemble byte-wise.
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.Byte(addr+uint32(i))) << (8 * i)
	}
	return v
}

// StoreLE writes the low size bytes (1..8) of v at addr, little-endian.
func (m *Memory) StoreLE(addr uint32, size int, v uint64) {
	off := int(addr & pageMask)
	if i := int(addr >> PageShift); off+size <= PageSize {
		pg := &m.writable(i).b
		m.bump(i)
		switch size {
		case 1:
			pg[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(pg[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(pg[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(pg[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// stackSlot reports whether the 8 bytes at addr lie inside one page,
// inside memory and at or above guard: the slots push and pop access
// in place. Any other slot takes Machine.Load or Store, which report
// the fault.
func (m *Memory) stackSlot(addr, guard uint32) bool {
	return addr >= guard && addr&pageMask <= PageSize-8 && int(addr)+8 <= m.size
}

// load64 and store64 access a stackSlot in place.
func (m *Memory) load64(addr uint32) uint64 {
	return binary.LittleEndian.Uint64(m.pages[addr>>PageShift].b[addr&pageMask:])
}

func (m *Memory) store64(addr uint32, v uint64) {
	i := int(addr >> PageShift)
	binary.LittleEndian.PutUint64(m.writable(i).b[addr&pageMask:], v)
	m.bump(i)
}

// EqualAt reports whether memory at addr equals b. The range must lie
// inside memory.
func (m *Memory) EqualAt(b []byte, addr uint32) bool {
	if int64(addr)+int64(len(b)) > int64(m.size) {
		panic(fmt.Sprintf("vm: EqualAt(%#x, %d) outside memory of %d bytes", addr, len(b), m.size))
	}
	for len(b) > 0 {
		off := int(addr & pageMask)
		n := min(PageSize-off, len(b))
		if !bytes.Equal(b[:n], m.pages[addr>>PageShift].b[off:off+n]) {
			return false
		}
		b = b[n:]
		addr += uint32(n)
	}
	return true
}

// window returns up to len(buf) bytes starting at off, never past the
// end of memory, for instruction decoding: a zero-copy in-page slice
// when possible, otherwise a gather into buf across the page boundary.
// off must be within memory.
func (m *Memory) window(off int, buf []byte) []byte {
	n := min(m.size-off, len(buf))
	if po := off & pageMask; po+n <= PageSize {
		return m.pages[off>>PageShift].b[po : po+n]
	}
	for j := 0; j < n; {
		j += copy(buf[j:n], m.pages[(off+j)>>PageShift].b[(off+j)&pageMask:])
	}
	return buf[:n]
}

// DecodeAt decodes the instruction at off, reading across page
// boundaries as needed. It is the by-value form of the one cache path —
// cached, then fill on a miss — that Run executes through in place: on
// a hit Run points into the cache entry instead of copying the
// instruction out. That is sound because an entry is overwritten only by
// a fill, never by a store (a store bumps the page generation, so the
// next lookup misses). A fill — this call included — may overwrite the
// entry a running Run points at, which is why Run copies what it needs
// before a TRAP handler runs. Like every other method, DecodeAt assumes
// a single owner: it mutates the cache.
func (m *Memory) DecodeAt(off int) (isa.Insn, error) {
	in := m.cached(off)
	if in == nil {
		var err error
		if in, err = m.fill(off); err != nil {
			return isa.Insn{}, err
		}
	}
	return *in, nil
}

// cached returns the decode cache entry's instruction for off, or nil
// on a miss. The pointer is valid while the page has not been written
// since the entry was filled; it survives stores and dies at the next
// fill of the same slot (off & dcMask). It is small enough to inline
// into Run, which is the point.
func (m *Memory) cached(off int) *isa.Insn {
	if m.dc != nil {
		// Only fills set e.off, and only to in-range offsets, so a match
		// also bounds-checks off.
		e := &m.dc[off&dcMask]
		if int(e.off) == off && e.in.Len > 0 && e.gen == m.gen[off>>PageShift] {
			return &e.in
		}
	}
	return nil
}

// fill is the miss path, kept out of line: range check, lazy cache
// allocation, the straddler cache, decode, and the fill. It returns a
// pointer to the entry holding the decode: a dc entry, or for an
// instruction that straddles a page boundary an sc entry, valid until
// either page is written.
//
//go:noinline
func (m *Memory) fill(off int) (*isa.Insn, error) {
	if off < 0 || off >= m.size {
		return nil, fmt.Errorf("isa: decode offset %#x out of range", off)
	}
	if m.dc == nil {
		m.gen = make([]uint32, len(m.pages))
		m.dc = new([dcSize]dcEntry)
	}
	pg := off >> PageShift
	// Only straddlers are stored in sc, and only by a fill after gen
	// exists, so a match means page pg+1 exists.
	s := &m.sc[pg&scMask]
	if int(s.off) == off && s.in.Len > 0 && s.gens == [2]uint32{m.gen[pg], m.gen[pg+1]} {
		return &s.in, nil
	}
	var w [maxInsnWindow]byte
	in, err := isa.Decode(m.window(off, w[:]), 0)
	if err != nil {
		return nil, err
	}
	if (off&pageMask)+in.Len <= PageSize {
		e := &m.dc[off&dcMask]
		*e = dcEntry{off: int32(off), gen: m.gen[pg], in: in}
		return &e.in, nil
	}
	*s = scEntry{off: int32(off), gens: [2]uint32{m.gen[pg], m.gen[pg+1]}, in: in}
	return &s.in, nil
}

// SkipNops returns the offset of the first non-no-op byte at or after
// off, mirroring isa.SkipNops over paged memory.
func (m *Memory) SkipNops(off int) int {
	for off >= 0 && off < m.size {
		var buf [4]byte
		n := isa.NopLen(m.window(off, buf[:]), 0)
		if n == 0 {
			return off
		}
		off += n
	}
	return off
}

// Bytes returns a flat copy of the whole memory — a diagnostic and test
// affordance, not a data path. Pages still backed by the shared zero
// page are not copied, since the fresh copy starts zeroed. That keeps
// their part of the copy non-resident only when make takes a span fresh
// from the OS: a reused heap span is zeroed by the runtime, which makes
// the whole copy resident however few pages are private.
func (m *Memory) Bytes() []byte {
	out := make([]byte, m.size)
	for i, p := range m.pages {
		if p != zeroPage {
			copy(out[i<<PageShift:], p.b[:])
		}
	}
	return out
}

// PrivatePages reports how many pages are private (materialized) rather
// than shared — the clone's real memory footprint in pages.
func (m *Memory) PrivatePages() int {
	n := 0
	for _, p := range m.pages {
		if p.owner == m.owner {
			n++
		}
	}
	return n
}
