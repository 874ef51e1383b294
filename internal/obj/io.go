package obj

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.err = err
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.err = err
	return v
}

func (r *reader) u32() uint32 {
	v := r.uvarint()
	if r.err == nil && v > math.MaxUint32 {
		r.err = fmt.Errorf("obj: u32 field overflows: %d", v)
	}
	return uint32(v)
}

func (r *reader) i32() int32 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	r.err = err
	if r.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		r.err = fmt.Errorf("obj: i32 field overflows: %d", v)
	}
	return int32(v)
}

// maxBlob bounds single decoded byte fields to keep hostile inputs from
// forcing huge allocations.
const maxBlob = 1 << 24

func (r *reader) count(what string) int {
	n := r.uvarint()
	if r.err == nil && n > maxBlob {
		r.err = fmt.Errorf("obj: unreasonable %s count %d", what, n)
	}
	return int(n)
}

// readChunk is the largest field read with one up-front allocation.
// Longer claimed lengths grow the buffer a chunk at a time as the bytes
// arrive, so a truncated or hostile input costs memory in proportion to
// what it holds, not to what it claims.
const readChunk = 64 << 10

// field reads an n-byte field, or returns nil with r.err set.
func (r *reader) field(n int) []byte {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		k := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, k)
		m, err := io.ReadFull(r.r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+m]
		if err != nil {
			r.err = err
			return nil
		}
	}
	return buf
}

func (r *reader) str() string {
	n := r.count("string")
	if r.err != nil {
		return ""
	}
	return string(r.field(n))
}

func (r *reader) bytes() []byte {
	n := r.count("blob")
	if r.err != nil || n == 0 {
		return nil
	}
	return r.field(n)
}

func (r *reader) bool() bool { return r.u8() != 0 }

// Read deserializes a SOF file from in and validates it structurally.
func Read(in io.Reader) (*File, error) {
	br := &reader{r: bufio.NewReader(in)}
	var magic [4]byte
	if _, err := io.ReadFull(br.r, magic[:]); err != nil {
		return nil, err
	}
	if magic != sofMagic {
		return nil, ErrBadMagic
	}
	f := &File{}
	f.SourcePath = br.str()
	f.Compiler = br.str()

	nsec := br.count("section")
	for i := 0; i < nsec && br.err == nil; i++ {
		s := &Section{}
		s.Name = br.str()
		s.Kind = SectionKind(br.u8())
		s.Align = br.u32()
		s.Data = br.bytes()
		s.Size = br.u32()
		nrel := br.count("reloc")
		for j := 0; j < nrel && br.err == nil; j++ {
			var r Reloc
			r.Offset = br.u32()
			r.Type = RelocType(br.u8())
			r.Sym = int(br.uvarint())
			r.Addend = br.i32()
			s.Relocs = append(s.Relocs, r)
		}
		f.Sections = append(f.Sections, s)
	}

	nsym := br.count("symbol")
	for i := 0; i < nsym && br.err == nil; i++ {
		s := &Symbol{}
		s.Name = br.str()
		s.Local = br.bool()
		s.Section = int(br.i32())
		s.Value = br.u32()
		s.Size = br.u32()
		s.Func = br.bool()
		f.Symbols = append(f.Symbols, s)
	}
	if br.err != nil {
		return nil, br.err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}
