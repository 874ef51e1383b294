package obj

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Binary serialization of SOF files. The format is little-endian
// throughout: a magic header, then the string-bearing fields length-
// prefixed with uvarints.

var sofMagic = [4]byte{'S', 'O', 'F', '1'}

// ErrBadMagic is returned when decoding data that is not a SOF file.
var ErrBadMagic = errors.New("obj: bad SOF magic")

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v byte) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

func (w *writer) u32(v uint32) { w.uvarint(uint64(v)) }

func (w *writer) i32(v int32) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], int64(v))
	_, w.err = w.w.Write(buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// Write serializes f to out.
func (f *File) Write(out io.Writer) error {
	bw := &writer{w: bufio.NewWriter(out)}
	if _, err := bw.w.Write(sofMagic[:]); err != nil {
		return err
	}
	bw.str(f.SourcePath)
	bw.str(f.Compiler)

	bw.uvarint(uint64(len(f.Sections)))
	for _, s := range f.Sections {
		bw.str(s.Name)
		bw.u8(byte(s.Kind))
		bw.u32(s.Align)
		bw.bytes(s.Data)
		bw.u32(s.Size)
		bw.uvarint(uint64(len(s.Relocs)))
		for _, r := range s.Relocs {
			bw.u32(r.Offset)
			bw.u8(byte(r.Type))
			bw.uvarint(uint64(r.Sym))
			bw.i32(r.Addend)
		}
	}

	bw.uvarint(uint64(len(f.Symbols)))
	for _, s := range f.Symbols {
		bw.str(s.Name)
		bw.bool(s.Local)
		bw.i32(int32(s.Section))
		bw.u32(s.Value)
		bw.u32(s.Size)
		bw.bool(s.Func)
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// decoder reads fields in place from an encoded SOF file or image. The
// first error sticks: io.EOF when a field starts at the end of the
// input, io.ErrUnexpectedEOF when one runs past it, and overflow or
// count errors otherwise.
type decoder struct {
	b   []byte
	off int
	err error
}

// eof records that a field needs more bytes than the input holds.
func (d *decoder) eof() {
	if d.off == len(d.b) {
		d.err = io.EOF
	} else {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off == len(d.b) {
		d.err = io.EOF
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// errVarintOverflow is the error binary.ReadUvarint and ReadVarint
// report for a varint longer than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// varint records n, the status binary.Uvarint or binary.Varint
// returned, and reports whether it read a value.
func (d *decoder) varint(n int) bool {
	switch {
	case n > 0:
		d.off += n
		return true
	case n == 0:
		d.eof()
	default:
		d.err = errVarintOverflow
	}
	return false
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if !d.varint(n) {
		return 0
	}
	return v
}

func (d *decoder) u32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > math.MaxUint32 {
		d.err = fmt.Errorf("obj: u32 field overflows: %d", v)
	}
	return uint32(v)
}

func (d *decoder) i32() int32 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if !d.varint(n) {
		return 0
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		d.err = fmt.Errorf("obj: i32 field overflows: %d", v)
	}
	return int32(v)
}

// maxBlob bounds single decoded byte fields and counts, so a hostile
// length is refused by name rather than read as a truncation.
const maxBlob = 1 << 24

func (d *decoder) count(what string) int {
	n := d.uvarint()
	if d.err == nil && n > maxBlob {
		d.err = fmt.Errorf("obj: unreasonable %s count %d", what, n)
	}
	return int(n)
}

// fit bounds a claimed element count by how many elements of at least
// minLen encoded bytes the rest of the input can hold, so a slice sized
// from it costs memory in proportion to the input, not to the claim.
func (d *decoder) fit(n, minLen int) int {
	return min(n, (len(d.b)-d.off)/minLen)
}

// field returns the next n bytes of the input, aliased and capped at
// their length, or nil with d.err set.
func (d *decoder) field(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.off {
		d.eof()
		return nil
	}
	f := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return f
}

// str returns a length-prefixed string that shares the input's memory.
func (d *decoder) str() string {
	n := d.count("string")
	f := d.field(n)
	if len(f) == 0 {
		return ""
	}
	return unsafe.String(&f[0], len(f))
}

func (d *decoder) bytes() []byte {
	n := d.count("blob")
	if d.err != nil || n == 0 {
		return nil
	}
	return d.field(n)
}

func (d *decoder) bool() bool { return d.u8() != 0 }

// magic checks the 4-byte magic that opens b, failing as io.ReadFull
// would on a shorter input.
func (d *decoder) magic(want [4]byte, bad error) bool {
	switch {
	case len(d.b) == 0:
		d.err = io.EOF
	case len(d.b) < len(want):
		d.err = io.ErrUnexpectedEOF
	case [4]byte(d.b) != want:
		d.err = bad
	default:
		d.off = len(want)
	}
	return d.err == nil
}

// The fewest bytes each repeated record encodes in: one per field, since
// every varint, length prefix and flag takes at least one.
const (
	minSectionLen = 6
	minRelocLen   = 4
	minSymbolLen  = 6
)

// Decode deserializes a SOF file from b and validates it structurally.
// It reads b in place: every name and every section's Data alias b
// (Data is capped at its length, so appending to it copies), so b must
// not be modified while the File is in use. The sections share one
// backing array, as do the symbols and the relocations.
func Decode(b []byte) (*File, error) {
	d := &decoder{b: b}
	if !d.magic(sofMagic, ErrBadMagic) {
		return nil, d.err
	}
	f := &File{}
	f.SourcePath = d.str()
	f.Compiler = d.str()

	nsec := d.count("section")
	var secs []Section
	var relocs []Reloc
	if nsec > 0 && d.err == nil {
		secs = make([]Section, 0, d.fit(nsec, minSectionLen))
	}
	for i := 0; i < nsec && d.err == nil; i++ {
		var s Section
		s.Name = d.str()
		s.Kind = SectionKind(d.u8())
		s.Align = d.u32()
		s.Data = d.bytes()
		s.Size = d.u32()
		nrel := d.count("reloc")
		if nrel > 0 && relocs == nil && d.err == nil {
			relocs = make([]Reloc, 0, d.fit(nrel, minRelocLen))
		}
		start := len(relocs)
		for j := 0; j < nrel && d.err == nil; j++ {
			var r Reloc
			r.Offset = d.u32()
			r.Type = RelocType(d.u8())
			r.Sym = int(d.uvarint())
			r.Addend = d.i32()
			relocs = append(relocs, r)
		}
		if len(relocs) > start {
			// Provisional: re-sliced below once relocs stops growing.
			s.Relocs = relocs[start:]
		}
		secs = append(secs, s)
	}

	nsym := d.count("symbol")
	var syms []Symbol
	if nsym > 0 && d.err == nil {
		syms = make([]Symbol, 0, d.fit(nsym, minSymbolLen))
	}
	for i := 0; i < nsym && d.err == nil; i++ {
		var s Symbol
		s.Name = d.str()
		s.Local = d.bool()
		s.Section = int(d.i32())
		s.Value = d.u32()
		s.Size = d.u32()
		s.Func = d.bool()
		syms = append(syms, s)
	}
	if d.err != nil {
		return nil, d.err
	}

	if len(secs) > 0 {
		f.Sections = make([]*Section, len(secs))
		next := 0
		for i := range secs {
			s := &secs[i]
			if n := len(s.Relocs); n > 0 {
				s.Relocs = relocs[next : next+n : next+n]
				next += n
			}
			f.Sections[i] = s
		}
	}
	if len(syms) > 0 {
		f.Symbols = make([]*Symbol, len(syms))
		for i := range syms {
			f.Symbols[i] = &syms[i]
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Read deserializes a SOF file from in: it reads in to the end and
// decodes the bytes with Decode, so the File owns its memory.
func Read(in io.Reader) (*File, error) {
	b, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
