package vm

import (
	"bytes"
	"sync"
	"testing"

	"gosplice/internal/isa"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(3*PageSize + 100)
	if m.Len() != 3*PageSize+100 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Fresh memory reads as zero everywhere, including the short tail.
	for _, addr := range []uint32{0, PageSize - 1, PageSize, 3 * PageSize, uint32(m.Len() - 1)} {
		if m.Byte(addr) != 0 {
			t.Errorf("fresh memory byte %#x = %d", addr, m.Byte(addr))
		}
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	// In-page and page-straddling writes.
	for _, addr := range []uint32{16, PageSize - 3, 2*PageSize - 4} {
		m.WriteAt(addr, data)
		got := m.ReadBytes(addr, len(data))
		if !bytes.Equal(got, data) {
			t.Errorf("round trip at %#x: %v", addr, got)
		}
		if !m.EqualAt(data, addr) {
			t.Errorf("EqualAt(%#x) = false after write", addr)
		}
	}
}

func TestMemoryLoadStoreLEAcrossPages(t *testing.T) {
	m := NewMemory(2 * PageSize)
	// An 8-byte value straddling the page boundary must round-trip and
	// agree with byte-at-a-time reads.
	addr := uint32(PageSize - 3)
	const v = uint64(0x1122334455667788)
	m.StoreLE(addr, 8, v)
	if got := m.LoadLE(addr, 8); got != v {
		t.Fatalf("LoadLE straddling = %#x, want %#x", got, v)
	}
	for i := 0; i < 8; i++ {
		want := byte(v >> (8 * i))
		if got := m.Byte(addr + uint32(i)); got != want {
			t.Errorf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	// All sizes, in-page.
	for _, size := range []int{1, 2, 4, 8} {
		m.StoreLE(64, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		if got := m.LoadLE(64, size); got != want {
			t.Errorf("size %d: %#x, want %#x", size, got, want)
		}
	}
}

func TestMemoryCloneIsolation(t *testing.T) {
	m := NewMemory(4 * PageSize)
	m.WriteAt(100, []byte("parent"))
	c := m.Clone()

	// Writes on either side are invisible to the other.
	c.WriteAt(100, []byte("CLONE!"))
	m.WriteAt(PageSize+8, []byte("post-clone parent write"))
	if !m.EqualAt([]byte("parent"), 100) {
		t.Error("clone write leaked into parent")
	}
	if !c.EqualAt([]byte("CLONE!"), 100) {
		t.Error("clone lost its own write")
	}
	if got := c.ReadBytes(PageSize+8, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Error("post-clone parent write leaked into clone")
	}
}

// TestMemoryConcurrentClonesSamePages: many clones of one base hammer the
// same page ranges concurrently; none may ever observe another's writes.
// This is the -race soak for the COW fault path.
func TestMemoryConcurrentClonesSamePages(t *testing.T) {
	base := NewMemory(8 * PageSize)
	base.WriteAt(0, bytes.Repeat([]byte{0xAA}, 8*PageSize))

	const clones = 8
	var wg sync.WaitGroup
	errs := make([]string, clones)
	for ci := 0; ci < clones; ci++ {
		c := base.Clone()
		wg.Add(1)
		go func(ci int, c *Memory) {
			defer wg.Done()
			fill := byte(ci + 1)
			// Dirty every page, including straddling writes.
			for pg := 0; pg < 8; pg++ {
				addr := uint32(pg*PageSize + ci*7)
				c.WriteAt(addr, bytes.Repeat([]byte{fill}, 100))
				c.StoreLE(uint32(pg*PageSize+PageSize/2), 8, uint64(fill))
			}
			for pg := 0; pg < 8; pg++ {
				addr := uint32(pg*PageSize + ci*7)
				if !c.EqualAt(bytes.Repeat([]byte{fill}, 100), addr) {
					errs[ci] = "clone lost its own write or observed another's"
					return
				}
				if got := c.LoadLE(uint32(pg*PageSize+PageSize/2), 8); got != uint64(fill) {
					errs[ci] = "clone word clobbered"
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for ci, e := range errs {
		if e != "" {
			t.Errorf("clone %d: %s", ci, e)
		}
	}
	// The base never sees any clone's writes.
	if !base.EqualAt(bytes.Repeat([]byte{0xAA}, PageSize), 0) {
		t.Error("base page 0 corrupted by clones")
	}
	if !base.EqualAt(bytes.Repeat([]byte{0xAA}, PageSize), 7*PageSize) {
		t.Error("base page 7 corrupted by clones")
	}
}

func TestMemoryParentWriteAfterCloneStaysPrivate(t *testing.T) {
	m := NewMemory(2 * PageSize)
	m.WriteAt(10, []byte("original"))
	c := m.Clone()
	// The parent faults its own private copy too: the snapshot the clone
	// holds is immutable from both sides.
	m.WriteAt(10, []byte("REWRITE!"))
	if !c.EqualAt([]byte("original"), 10) {
		t.Error("parent write after clone leaked into the clone")
	}
}

func TestMemoryZeroRange(t *testing.T) {
	m := NewMemory(4 * PageSize)
	m.WriteAt(0, bytes.Repeat([]byte{0xFF}, 4*PageSize))
	// Partial head, two whole pages, partial tail.
	start := uint32(PageSize - 10)
	n := uint32(2*PageSize + 20)
	m.ZeroRange(start, n)
	if m.Byte(start-1) != 0xFF || m.Byte(start+n) != 0xFF {
		t.Error("ZeroRange touched bytes outside the range")
	}
	for _, addr := range []uint32{start, start + n - 1, PageSize, 2*PageSize + 5} {
		if m.Byte(addr) != 0 {
			t.Errorf("byte %#x = %#x after ZeroRange", addr, m.Byte(addr))
		}
	}
	// Whole-page zeroing drops the private backing entirely.
	before := m.PrivatePages()
	m2 := NewMemory(2 * PageSize)
	m2.WriteAt(0, bytes.Repeat([]byte{1}, 2*PageSize))
	m2.ZeroRange(0, 2*PageSize)
	if got := m2.PrivatePages(); got != 0 {
		t.Errorf("fully zeroed memory holds %d private pages, want 0", got)
	}
	_ = before
}

func TestMemoryClonePagesAreLazy(t *testing.T) {
	m := NewMemory(1 << 20)
	m.WriteAt(0, bytes.Repeat([]byte{7}, 1<<20))
	c := m.Clone()
	if got := c.PrivatePages(); got != 0 {
		t.Fatalf("fresh clone holds %d private pages, want 0", got)
	}
	c.SetByte(5, 1)
	c.SetByte(PageSize+5, 2)
	if got := c.PrivatePages(); got != 2 {
		t.Errorf("clone holds %d private pages after touching 2, want 2", got)
	}
}

// refusesPastEnd checks that a read, a write and a zeroing of the last
// byte and one more each panic, even where the last page extends past
// the memory's size.
func refusesPastEnd(t *testing.T, m *Memory) {
	t.Helper()
	last := uint32(m.Len() - 1)
	for name, access := range map[string]func(){
		"ReadAt":    func() { m.ReadAt(make([]byte, 2), last) },
		"WriteAt":   func() { m.WriteAt(last, []byte("ab")) },
		"ZeroRange": func() { m.ZeroRange(last, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-byte memory: %s past the end did not panic", m.Len(), name)
				}
			}()
			access()
		}()
	}
}

func TestMemoryTruncateView(t *testing.T) {
	m := NewMemory(2*PageSize + 50)
	code := asm(
		"movi r0, 7",
		"hlt",
	)
	m.WriteAt(PageSize-2, code) // straddles the page boundary
	m.WriteAt(PageSize+8, []byte("past the cut"))
	cut := int(PageSize) + 1
	v := m.Truncate(cut)
	if v.Len() != cut {
		t.Fatalf("truncated Len = %d, want %d", v.Len(), cut)
	}
	if v.Byte(uint32(cut-1)) != m.Byte(uint32(cut-1)) {
		t.Error("truncated view differs from source")
	}
	// Decoding an instruction cut off by the truncation must error, not
	// read past the view's end.
	if _, err := v.DecodeAt(int(PageSize) - 2); err == nil {
		t.Error("decode across the truncation boundary succeeded")
	}
	// The full memory still decodes it.
	in, err := m.DecodeAt(int(PageSize) - 2)
	if err != nil || in.Op != isa.OpMOVI {
		t.Errorf("full-memory decode: %v %v", in.Op, err)
	}
	// The view's last page is the source's, bytes past the cut included:
	// the view's size, not its page, bounds every access.
	tail := make([]byte, 3)
	v.ReadAt(tail, uint32(cut-3))
	if want := m.ReadBytes(uint32(cut-3), 3); !bytes.Equal(tail, want) {
		t.Errorf("view ReadAt at its tail = %x, want %x", tail, want)
	}
	if got := v.Bytes(); !bytes.Equal(got, m.Bytes()[:cut]) {
		t.Error("view Bytes() differs from the source's first bytes")
	}
	refusesPastEnd(t, v)
	// Writes at the view's tail stay in the view, and zeroing up to its
	// end drops its last page without touching the source.
	orig := m.Byte(uint32(cut - 1))
	v.WriteAt(uint32(cut-1), asm("hlt"))
	if in, err := v.DecodeAt(cut - 1); err != nil || in.Op != isa.OpHLT {
		t.Errorf("view decode at its last byte: %v %v", in.Op, err)
	}
	if got := m.Byte(uint32(cut - 1)); got != orig {
		t.Errorf("view write at its tail reached the source: %#x, want %#x", got, orig)
	}
	v.ZeroRange(PageSize, 1)
	if v.PrivatePages() != 0 || v.Byte(PageSize) != 0 {
		t.Errorf("view zeroed to its end holds %d private pages, last byte %#x", v.PrivatePages(), v.Byte(PageSize))
	}
	if !m.EqualAt([]byte("past the cut"), PageSize+8) || m.Byte(PageSize) == 0 {
		t.Error("view writes reached the source's page")
	}
}

func TestMemoryDecodeAtPageBoundary(t *testing.T) {
	m := NewMemory(2 * PageSize)
	// A MOVI64 (10 bytes, the longest encoding) straddling the boundary.
	code := asm("movi64 r3, 0x0123456789ABCDEF")
	addr := PageSize - 5
	m.WriteAt(uint32(addr), code)
	in, err := m.DecodeAt(addr)
	if err != nil {
		t.Fatalf("decode straddling instruction: %v", err)
	}
	if in.Op != isa.OpMOVI64 || in.Imm != 0x0123456789ABCDEF {
		t.Errorf("decoded %v imm %#x", in.Op, in.Imm)
	}
	// SkipNops across a boundary.
	nops := asm("nop3", "nop4")
	m2 := NewMemory(2 * PageSize)
	start := int(PageSize) - 3
	m2.WriteAt(uint32(start), nops)
	m2.WriteAt(uint32(start+len(nops)), asm("hlt"))
	if got := m2.SkipNops(start); got != start+len(nops) {
		t.Errorf("SkipNops = %#x, want %#x", got, start+len(nops))
	}
}

// TestDecodeCacheSeesWrites pins the decode cache's invalidation: after
// a cached decode, overwriting the same bytes (the trampoline splice)
// must re-decode, and restoring them (undo) must re-decode again. Every
// write path the splice uses is exercised — WriteAt, StoreLE, SetByte,
// ZeroRange.
func TestDecodeCacheSeesWrites(t *testing.T) {
	m := NewMemory(2 * PageSize)
	addr := uint32(0x40)
	m.WriteAt(addr, asm("movi r1, 7"))
	in, err := m.DecodeAt(int(addr))
	if err != nil || in.Op != isa.OpMOVI {
		t.Fatalf("initial decode: %v %v", in.Op, err)
	}
	// Decode again (now served from cache), then overwrite.
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpMOVI {
		t.Fatalf("cached decode: %v", in.Op)
	}
	m.WriteAt(addr, asm("hlt"))
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpHLT {
		t.Errorf("decode after WriteAt = %v, want hlt (stale cache)", in.Op)
	}
	m.SetByte(addr, byte(isa.OpRET))
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpRET {
		t.Errorf("decode after SetByte = %v, want ret (stale cache)", in.Op)
	}
	m.StoreLE(addr, 1, uint64(isa.OpNOP))
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpNOP {
		t.Errorf("decode after StoreLE = %v, want nop (stale cache)", in.Op)
	}
	m.WriteAt(addr, asm("movi r2, 9"))
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpMOVI || in.Rd != isa.R2 {
		t.Errorf("decode after rewrite = %v rd=%v, want movi r2", in.Op, in.Rd)
	}
	m.ZeroRange(0, 2*PageSize)
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpNOP {
		t.Errorf("decode after ZeroRange = %v, want nop (zero byte)", in.Op)
	}
	// A clone inherits the bytes but not the cache; its own writes must
	// not be masked by the parent's history.
	m.WriteAt(addr, asm("movi r3, 1"))
	c := m.Clone()
	if in, _ = c.DecodeAt(int(addr)); in.Op != isa.OpMOVI || in.Rd != isa.R3 {
		t.Fatalf("clone decode: %v rd=%v", in.Op, in.Rd)
	}
	c.WriteAt(addr, asm("hlt"))
	if in, _ = c.DecodeAt(int(addr)); in.Op != isa.OpHLT {
		t.Errorf("clone decode after write = %v, want hlt", in.Op)
	}
	if in, _ = m.DecodeAt(int(addr)); in.Op != isa.OpMOVI {
		t.Errorf("parent decode after clone write = %v, want movi", in.Op)
	}
}

func TestMachineCloneRunsIndependently(t *testing.T) {
	// A counter-bump program run on a clone must not disturb the parent's
	// memory image.
	code := asm(
		"movi r1, 0x3000",
		"ld32u r0, [r1]",
		"movi r2, 1",
		"add32 r0, r2",
		"st32 [r1], r0",
		"hlt",
	)

	m := New(1 << 16)
	m.Mem.WriteAt(0x100, code)
	m.Mem.StoreLE(0x3000, 4, 41)

	c := m.Clone()
	th := &Thread{IP: 0x100}
	th.SetSP(uint32(c.Mem.Len()))
	if _, err := c.Run(th, 100); err != nil {
		t.Fatal(err)
	}
	if got := c.Mem.LoadLE(0x3000, 4); got != 42 {
		t.Errorf("clone counter = %d, want 42", got)
	}
	if got := m.Mem.LoadLE(0x3000, 4); got != 41 {
		t.Errorf("parent counter = %d, want 41 (clone run leaked)", got)
	}
}

// TestMemoryBytesMatchesPages holds Bytes, which skips pages still
// backed by the shared zero page, to a page-by-page copy over every kind
// of page: never written, shared with a clone, private, zeroed back to
// the zero page, private but all zero, and a last page that extends past
// the memory's size. Reads, writes, zeroing and decodes that end exactly
// at the size work there; one byte further, each is refused.
func TestMemoryBytesMatchesPages(t *testing.T) {
	const size = 7*PageSize + 100
	m := NewMemory(size)
	m.WriteAt(PageSize+5, []byte("shared with the clone"))
	m.WriteAt(3*PageSize, bytes.Repeat([]byte{0xAB}, PageSize))
	m.WriteAt(size-10, []byte("short tail"))
	c := m.Clone()
	m.WriteAt(2*PageSize+PageSize-4, []byte("straddles")) // pages 2 and 3 go private
	m.ZeroRange(3*PageSize, PageSize)                     // page 3 back to the zero page
	m.SetByte(5*PageSize+7, 0)                            // page 5 private, still all zero
	c.WriteAt(6*PageSize, []byte("clone-only page"))

	// The tail: the clone zeroes its last page up to the end, which
	// drops it back to the zero page; the parent decodes there.
	c.ZeroRange(7*PageSize, 100)
	if got := c.ReadBytes(size-10, 10); !bytes.Equal(got, make([]byte, 10)) {
		t.Errorf("clone tail after ZeroRange to the end = %q", got)
	}
	if got := c.PrivatePages(); got != 1 {
		t.Errorf("clone holds %d private pages, want 1 (page 6)", got)
	}
	tail := make([]byte, 10)
	if m.ReadAt(tail, size-10); string(tail) != "short tail" {
		t.Errorf("parent tail = %q after the clone zeroed its own", tail)
	}
	movi := asm("movi r0, 7")
	m.WriteAt(size-3, movi[:2])
	m.WriteAt(size-1, asm("hlt"))
	if in, err := m.DecodeAt(size - 1); err != nil || in.Op != isa.OpHLT {
		t.Errorf("decode of the last byte: %v %v", in.Op, err)
	}
	if _, err := m.DecodeAt(size - 3); err == nil {
		t.Errorf("decode of a %d-byte instruction 3 bytes before the end succeeded", len(movi))
	}
	if _, err := m.DecodeAt(size); err == nil {
		t.Error("decode at the size succeeded")
	}
	refusesPastEnd(t, m)

	reference := func(m *Memory) []byte {
		var out []byte
		for i := 0; i*PageSize < m.Len(); i++ {
			out = append(out, m.ReadBytes(uint32(i*PageSize), min(PageSize, m.Len()-i*PageSize))...)
		}
		return out
	}
	for name, mem := range map[string]*Memory{"parent": m, "clone": c} {
		got, want := mem.Bytes(), reference(mem)
		if len(got) != size || !bytes.Equal(got, want) {
			t.Errorf("%s: Bytes() differs from the page-by-page copy", name)
		}
	}
	if bytes.Equal(m.Bytes(), c.Bytes()) {
		t.Error("parent and clone diverged but their Bytes() are equal")
	}
}
