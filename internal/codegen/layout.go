package codegen

import (
	"fmt"

	"gosplice/internal/obj"
)

// objWriter builds one object file for the MiniC compiler and the
// assembler alike, and is the one place the paper's section 3.2 layout
// choice is made: under Options.ObjectSections every function, data
// object and string literal gets a section of its own, so every
// reference between them is a relocation; otherwise a unit's objects
// share one section per kind. It holds name-based relocations back
// until every symbol of the file is defined.
type objWriter struct {
	file     *obj.File
	sections bool
	// pending holds each section's name-based relocations, by section
	// index.
	pending [][]relocRef
}

func newObjWriter(path string, opts Options) *objWriter {
	return &objWriter{
		file:     &obj.File{SourcePath: path, Compiler: Version},
		sections: opts.ObjectSections,
	}
}

// add appends sec, whose relocations refs will name their symbols, and
// returns its index.
func (w *objWriter) add(sec *obj.Section, refs []relocRef) int {
	w.pending = append(w.pending, refs)
	return w.file.AddSection(sec)
}

// emitText lays out fns in order and defines their function symbols;
// sym names a function and says whether it is file-local, and gen
// emits its body. Under object sections each function gets its own
// .text.<name> section with near branches; otherwise they share one
// relaxed .text, even when there are none, each starting on a funcAlign
// boundary. A name defined twice is refused in both layouts.
func emitText[F any](w *objWriter, fns []F, sym func(F) (name string, local bool), gen func(*Builder, F) error) error {
	seen := map[string]bool{}
	for _, fn := range fns {
		name, _ := sym(fn)
		if seen[name] {
			return fmt.Errorf("codegen: %s: duplicate function %q", w.file.SourcePath, name)
		}
		seen[name] = true
	}
	sections, per := 1, len(fns)
	if w.sections {
		sections, per = len(fns), 1
	}
	for s := 0; s < sections; s++ {
		group := fns[s*per : (s+1)*per]
		var b *Builder
		if w.sections {
			name, _ := sym(group[0])
			b = NewBuilder(obj.FuncSectionPrefix+name, false)
		} else {
			b = NewBuilder(obj.TextSection, true)
		}
		for _, fn := range group {
			name, _ := sym(fn)
			if !w.sections {
				b.Align(funcAlign)
			}
			b.BeginSym(name)
			if err := gen(b, fn); err != nil {
				return err
			}
			b.EndSym(name)
		}
		sec, exts, err := b.Finalize(obj.Text, funcAlign)
		if err != nil {
			return err
		}
		si := w.add(sec, b.PendingRelocs())
		for _, fn := range group {
			name, local := sym(fn)
			ext := exts[name]
			w.file.Symbols = append(w.file.Symbols, &obj.Symbol{
				Name: name, Local: local, Section: si,
				Value: ext[0], Size: ext[1], Func: true,
			})
		}
	}
	return nil
}

// dataArea is one kind of data object: the shared section a build
// without object sections packs every object of the kind into, that
// section's alignment, and the prefix of the section each object gets
// under object sections.
type dataArea struct {
	kind   obj.SectionKind
	shared string
	align  uint32
	prefix string
}

const (
	areaData = iota
	areaBSS
	areaStrings
)

var dataAreas = [...]dataArea{
	areaData:    {obj.Data, obj.DataSection, 8, obj.DataSectionPrefix},
	areaBSS:     {obj.BSS, obj.BSSSection, 8, obj.BSSSectionPrefix},
	areaStrings: {obj.ROData, obj.RODataSection, 1, obj.StringSectionPrefix},
}

// dataObj is one object for pack to place.
type dataObj struct {
	area int // areaData, areaBSS or areaStrings
	// name follows the area's prefix in the object's own section name.
	name  string
	sym   string
	local bool
	align uint32
	bytes []byte // nil in areaBSS
	size  uint32
	refs  []relocRef // offsets within bytes
}

// pack places objs and defines their symbols. Under object sections each
// object gets its own section, in order; otherwise each goes at an
// aligned offset in its area's shared section, and the shared sections
// follow in area order, each only if some object uses it.
func (w *objWriter) pack(objs []dataObj) {
	if w.sections {
		for _, o := range objs {
			a := &dataAreas[o.area]
			sec := &obj.Section{Name: a.prefix + o.name, Kind: a.kind, Align: o.align, Data: o.bytes}
			if a.kind == obj.BSS {
				sec.Size = o.size
			}
			w.defineData(o, w.add(sec, o.refs), 0)
		}
		return
	}
	for area := range dataAreas {
		a := &dataAreas[area]
		si := -1
		for _, o := range objs {
			if o.area != area {
				continue
			}
			if si < 0 {
				si = w.add(&obj.Section{Name: a.shared, Kind: a.kind, Align: a.align}, nil)
			}
			sec := w.file.Sections[si]
			off := (sec.Len() + o.align - 1) &^ (o.align - 1)
			if a.kind == obj.BSS {
				sec.Size = off + o.size
			} else {
				sec.Data = append(sec.Data, make([]byte, off-sec.Len())...)
				sec.Data = append(sec.Data, o.bytes...)
				for _, r := range o.refs {
					r.off += off
					w.pending[si] = append(w.pending[si], r)
				}
			}
			w.defineData(o, si, off)
		}
	}
}

func (w *objWriter) defineData(o dataObj, si int, off uint32) {
	w.file.Symbols = append(w.file.Symbols, &obj.Symbol{
		Name: o.sym, Local: o.local, Section: si, Value: off, Size: o.size,
	})
}

// finish resolves the queued relocations in section-index order, which
// keeps the undefined-symbol table deterministic, and validates the file.
func (w *objWriter) finish() (*obj.File, error) {
	for si, refs := range w.pending {
		sec := w.file.Sections[si]
		for _, r := range refs {
			sec.Relocs = append(sec.Relocs, obj.Reloc{
				Offset: r.off, Type: r.typ,
				Sym: w.file.SymbolIndex(r.sym), Addend: r.addend,
			})
		}
	}
	if err := w.file.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: internal error in %s: %w", w.file.SourcePath, err)
	}
	return w.file, nil
}
