package obj

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"gosplice/internal/isa"
)

// sample builds a small two-file program: file a defines global f calling
// global g (defined in file b) and reading local data; file b defines g
// and its own local symbol with the same name as a's.
func sampleFiles() []*File {
	a := &File{SourcePath: "a.mc", Compiler: "minicc-1.0"}
	text := &Section{Name: ".text.f", Kind: Text, Align: 16}
	// f: call g; ret  — call displacement filled by relocation.
	text.Data = isa.Encode(nil, isa.Insn{Op: isa.OpCALL})
	text.Data = isa.Encode(text.Data, isa.Insn{Op: isa.OpRET})
	a.AddSection(text)
	data := &Section{Name: ".data.debug", Kind: Data, Align: 8, Data: make([]byte, 8)}
	a.AddSection(data)
	a.Symbols = []*Symbol{
		{Name: "f", Section: 0, Value: 0, Size: 6, Func: true},
		{Name: "debug", Local: true, Section: 1, Value: 0, Size: 8},
		{Name: "g", Section: SymUndef},
	}
	text.Relocs = []Reloc{{Offset: 1, Type: RelPC32, Sym: 2, Addend: -4}}

	b := &File{SourcePath: "b.mc", Compiler: "minicc-1.0"}
	gtext := &Section{Name: ".text.g", Kind: Text, Align: 16, Data: isa.Encode(nil, isa.Insn{Op: isa.OpRET})}
	b.AddSection(gtext)
	bdata := &Section{Name: ".data.debug", Kind: Data, Align: 8, Data: make([]byte, 8)}
	b.AddSection(bdata)
	bss := &Section{Name: ".bss.buf", Kind: BSS, Align: 8, Size: 64}
	b.AddSection(bss)
	b.Symbols = []*Symbol{
		{Name: "g", Section: 0, Value: 0, Size: 1, Func: true},
		{Name: "debug", Local: true, Section: 1, Value: 0, Size: 8},
		{Name: "buf", Local: true, Section: 2, Value: 0, Size: 64},
	}
	return []*File{a, b}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range sampleFiles() {
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			t.Fatalf("%s: write: %v", f.SourcePath, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", f.SourcePath, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", f.SourcePath, got, f)
		}
	}
}

func TestReadRejectsJunk(t *testing.T) {
	if _, err := Read(strings.NewReader("ELF?....")); err != ErrBadMagic {
		t.Errorf("junk magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := Read(strings.NewReader("SO")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Truncated after magic.
	if _, err := Read(strings.NewReader("SOF1")); err == nil {
		t.Error("empty body accepted")
	}
}

// TestReadClaimedLengthBoundsAllocation: an 8-byte input that claims a
// 16 MiB source path must fail having allocated memory for the bytes it
// holds, not for the length it claims.
func TestReadClaimedLengthBoundsAllocation(t *testing.T) {
	in := binary.AppendUvarint([]byte("SOF1"), maxBlob)
	if len(in) != 8 {
		t.Fatalf("input is %d bytes, want 8", len(in))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated field accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Read allocated %d KiB, want under 1 MiB", n>>10)
	}
}

// Reading arbitrary bytes must never panic and never allocate absurdly.
func TestReadFuzzProperty(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) > 512 {
			body = body[:512]
		}
		in := append([]byte("SOF1"), body...)
		_, err := Read(bytes.NewReader(in))
		_ = err // error or success both fine; absence of panic is the property
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLinkLayoutAndRelocs(t *testing.T) {
	files := sampleFiles()
	im, err := Link(files, LinkOptions{Base: 0x100000})
	if err != nil {
		t.Fatal(err)
	}

	fsym, err := im.LookupOne("f")
	if err != nil {
		t.Fatal(err)
	}
	gsym, err := im.LookupOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if fsym.Addr != 0x100000 {
		t.Errorf("f at %#x, want image base", fsym.Addr)
	}
	if gsym.Addr%16 != 0 {
		t.Errorf("g at %#x not 16-aligned", gsym.Addr)
	}

	// The call in f must target g after relocation: field = S + A - P.
	code := im.Bytes[fsym.Addr-im.Base:]
	in, err := isa.Decode(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Target(fsym.Addr); got != gsym.Addr {
		t.Errorf("call targets %#x, want g at %#x", got, gsym.Addr)
	}

	// Both files' local "debug" symbols exist at distinct addresses.
	debugs := im.Lookup("debug")
	if len(debugs) != 2 || debugs[0].Addr == debugs[1].Addr {
		t.Fatalf("debug symbols: %+v", debugs)
	}
	if _, err := im.LookupOne("debug"); err == nil {
		t.Error("LookupOne on ambiguous symbol succeeded")
	}

	// BSS is zeroed and within the image.
	bufs := im.Lookup("buf")
	if len(bufs) != 1 {
		t.Fatalf("buf symbols: %+v", bufs)
	}
	for i := uint32(0); i < bufs[0].Size; i++ {
		if im.Bytes[bufs[0].Addr-im.Base+i] != 0 {
			t.Fatal("bss not zeroed")
		}
	}

	// FuncAt finds f for an interior address and nothing in data.
	if sym, ok := im.FuncAt(fsym.Addr + 2); !ok || sym.Name != "f" {
		t.Errorf("FuncAt(f+2) = %v %v", sym, ok)
	}
	if _, ok := im.FuncAt(debugs[0].Addr); ok {
		t.Error("FuncAt found a function covering data")
	}
}

func TestLinkAbsReloc(t *testing.T) {
	f := &File{SourcePath: "t.mc"}
	text := &Section{Name: ".text.h", Kind: Text, Align: 16}
	text.Data = isa.Encode(nil, isa.Insn{Op: isa.OpMOVI, Rd: isa.R0}) // imm field patched by abs32 reloc
	text.Data = isa.Encode(text.Data, isa.Insn{Op: isa.OpRET})
	f.AddSection(text)
	data := &Section{Name: ".data.v", Kind: Data, Align: 8, Data: make([]byte, 8)}
	f.AddSection(data)
	f.Symbols = []*Symbol{
		{Name: "h", Section: 0, Size: 7, Func: true},
		{Name: "v", Section: 1, Size: 8},
	}
	text.Relocs = []Reloc{{Offset: 2, Type: RelAbs32, Sym: 1, Addend: 4}}

	im, err := Link([]*File{f}, LinkOptions{Base: 0x200000})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := im.LookupOne("v")
	got := binary.LittleEndian.Uint32(im.Bytes[2:])
	if got != v.Addr+4 {
		t.Errorf("abs32 field = %#x, want v+4 = %#x", got, v.Addr+4)
	}
}

func TestLinkErrors(t *testing.T) {
	// Duplicate globals.
	mk := func(name string) *File {
		f := &File{SourcePath: name}
		f.AddSection(&Section{Name: ".text.dup", Kind: Text, Align: 16, Data: isa.Encode(nil, isa.Insn{Op: isa.OpRET})})
		f.Symbols = []*Symbol{{Name: "dup", Section: 0, Size: 1, Func: true}}
		return f
	}
	if _, err := Link([]*File{mk("x.mc"), mk("y.mc")}, LinkOptions{Base: 0x1000}); err == nil {
		t.Error("duplicate global link succeeded")
	}

	// Unresolved symbol without resolver.
	f := &File{SourcePath: "u.mc"}
	text := &Section{Name: ".text.u", Kind: Text, Align: 16, Data: isa.Encode(nil, isa.Insn{Op: isa.OpCALL})}
	text.Relocs = []Reloc{{Offset: 1, Type: RelPC32, Sym: 1, Addend: -4}}
	f.AddSection(text)
	f.Symbols = []*Symbol{
		{Name: "u", Section: 0, Size: 5, Func: true},
		{Name: "missing", Section: SymUndef},
	}
	if _, err := Link([]*File{f}, LinkOptions{Base: 0x1000}); err == nil {
		t.Error("unresolved symbol link succeeded")
	}

	// Same link succeeds with an external resolver (module loading path).
	im, err := Link([]*File{f}, LinkOptions{
		Base: 0x1000,
		Resolve: func(name string) (uint32, error) {
			if name == "missing" {
				return 0xbeef0, nil
			}
			return 0, ErrBadMagic
		},
	})
	if err != nil {
		t.Fatalf("resolver link: %v", err)
	}
	in, _ := isa.Decode(im.Bytes, 0)
	if got := in.Target(0x1000); got != 0xbeef0 {
		t.Errorf("resolved call targets %#x", got)
	}
}

func TestValidate(t *testing.T) {
	f := &File{SourcePath: "bad.mc"}
	sec := &Section{Name: ".text.x", Kind: Text, Align: 16, Data: isa.Encode(nil, isa.Insn{Op: isa.OpRET})}
	sec.Relocs = []Reloc{{Offset: 100, Type: RelAbs32, Sym: 0}}
	f.AddSection(sec)
	f.Symbols = []*Symbol{{Name: "x", Section: 0, Size: 1, Func: true}}
	if err := f.Validate(); err == nil {
		t.Error("out-of-range reloc validated")
	}
	sec.Relocs = nil
	f.Symbols = append(f.Symbols, &Symbol{Name: "x", Section: 0})
	if err := f.Validate(); err == nil {
		t.Error("duplicate in-file symbol validated")
	}
	f.Symbols = f.Symbols[:1]
	f.Symbols[0].Size = 99
	if err := f.Validate(); err == nil {
		t.Error("symbol past section end validated")
	}
}

func TestFuncSectionNames(t *testing.T) {
	if got := FuncNameOfSection(".text.do_brk"); got != "do_brk" {
		t.Errorf("FuncNameOfSection = %q", got)
	}
	if got := FuncNameOfSection(".data.x"); got != "" {
		t.Errorf("FuncNameOfSection on data = %q", got)
	}
	if got := FuncNameOfSection(".text"); got != "" {
		t.Errorf("FuncNameOfSection on plain .text = %q", got)
	}
}

func TestPC8RangeError(t *testing.T) {
	f := &File{SourcePath: "p8.mc"}
	text := &Section{Name: ".text.a", Kind: Text, Align: 16}
	text.Data = isa.Encode(nil, isa.Insn{Op: isa.OpJMPS})
	text.Data = isa.Nop(text.Data, 300)
	text.Data = isa.Encode(text.Data, isa.Insn{Op: isa.OpRET})
	f.AddSection(text)
	f.Symbols = []*Symbol{
		{Name: "a", Section: 0, Size: uint32(len(text.Data)), Func: true},
		{Name: "far", Section: 0, Value: uint32(len(text.Data)) - 1, Func: true, Local: true},
	}
	text.Relocs = []Reloc{{Offset: 1, Type: RelPC8, Sym: 1, Addend: -1}}
	if _, err := Link([]*File{f}, LinkOptions{Base: 0x1000}); err == nil {
		t.Error("pc8 overflow link succeeded")
	}
}
