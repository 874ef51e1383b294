package obj

import (
	"bufio"
	"errors"
	"io"
)

// Binary serialization of linked images, companion to the SOF file
// serialization in io.go and sharing its writer and decoder helpers. Persisted
// images let a cold process boot a kernel without relinking: the artifact
// store keys them by (tree hash, options, base), which the link is a pure
// function of.

var imageMagic = [4]byte{'S', 'I', 'M', 'G'}

// ErrBadImageMagic is returned when decoding data that is not a
// serialized image.
var ErrBadImageMagic = errors.New("obj: bad image magic")

// WriteImage serializes im to out.
func (im *Image) WriteImage(out io.Writer) error {
	bw := &writer{w: bufio.NewWriter(out)}
	if _, err := bw.w.Write(imageMagic[:]); err != nil {
		return err
	}
	bw.u32(im.Base)
	bw.bytes(im.Bytes)
	bw.uvarint(uint64(len(im.Sections)))
	for _, s := range im.Sections {
		bw.str(s.File)
		bw.str(s.Name)
		bw.u8(byte(s.Kind))
		bw.u32(s.Addr)
		bw.u32(s.Size)
	}
	bw.uvarint(uint64(len(im.Symbols)))
	for _, s := range im.Symbols {
		bw.str(s.Name)
		bw.u32(s.Addr)
		bw.u32(s.Size)
		bw.bool(s.Local)
		bw.bool(s.Func)
		bw.str(s.File)
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// The fewest bytes a placed section and an image symbol encode in.
const (
	minPlacedSectionLen = 5
	minImageSymbolLen   = 6
)

// DecodeImage deserializes a linked image from b. Like Decode it reads
// b in place: Bytes and every name alias b, so b must not be modified
// while the Image is in use.
func DecodeImage(b []byte) (*Image, error) {
	d := &decoder{b: b}
	if !d.magic(imageMagic, ErrBadImageMagic) {
		return nil, d.err
	}
	im := &Image{}
	im.Base = d.u32()
	im.Bytes = d.bytes()
	nsec := d.count("placed section")
	if nsec > 0 && d.err == nil {
		im.Sections = make([]PlacedSection, 0, d.fit(nsec, minPlacedSectionLen))
	}
	for i := 0; i < nsec && d.err == nil; i++ {
		var s PlacedSection
		s.File = d.str()
		s.Name = d.str()
		s.Kind = SectionKind(d.u8())
		s.Addr = d.u32()
		s.Size = d.u32()
		im.Sections = append(im.Sections, s)
	}
	nsym := d.count("image symbol")
	if nsym > 0 && d.err == nil {
		im.Symbols = make([]ImageSymbol, 0, d.fit(nsym, minImageSymbolLen))
	}
	for i := 0; i < nsym && d.err == nil; i++ {
		var s ImageSymbol
		s.Name = d.str()
		s.Addr = d.u32()
		s.Size = d.u32()
		s.Local = d.bool()
		s.Func = d.bool()
		s.File = d.str()
		im.Symbols = append(im.Symbols, s)
	}
	if d.err != nil {
		return nil, d.err
	}
	return im, nil
}

// ReadImage deserializes a linked image from in: it reads in to the end
// and decodes the bytes with DecodeImage, so the Image owns its memory.
func ReadImage(in io.Reader) (*Image, error) {
	b, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	return DecodeImage(b)
}
