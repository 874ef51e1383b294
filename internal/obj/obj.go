// Package obj implements SOF, the Simple Object Format: relocatable object
// files produced by the MiniC compiler and assembler, and a static linker
// that lays them out into executable images.
//
// SOF plays the role ELF plays in the paper. It has the features the
// Ksplice techniques depend on: named sections (so a Ksplice build can
// give every function and data object its own section; see TextSection
// for the names), a symbol table distinguishing local from global
// bindings (so two compilation units can both define a local symbol named
// "debug"), and relocations with explicit addends whose final stored value
// is computed as A+S-P for PC-relative types and A+S for absolute types —
// the algebra run-pre matching inverts to recover symbol values from a
// running kernel.
package obj

import (
	"fmt"
	"strings"
)

// SectionKind classifies a section for segment layout.
type SectionKind byte

const (
	// Text holds executable SIM32 code.
	Text SectionKind = iota
	// ROData holds read-only data such as string literals.
	ROData
	// Data holds initialized writable data.
	Data
	// BSS holds zero-initialized writable data; Section.Data is nil and
	// Section.Size gives the extent.
	BSS
	// Note holds metadata loaded with the image but never executed, such
	// as the .ksplice.* hook-pointer sections.
	Note
)

func (k SectionKind) String() string {
	switch k {
	case Text:
		return "text"
	case ROData:
		return "rodata"
	case Data:
		return "data"
	case BSS:
		return "bss"
	case Note:
		return "note"
	}
	return fmt.Sprintf("kind?%d", byte(k))
}

// RelocType identifies how a relocation's final value is computed and
// stored.
type RelocType byte

const (
	// RelAbs32 stores the 32-bit absolute value S+A.
	RelAbs32 RelocType = iota
	// RelAbs64 stores the 64-bit absolute value S+A.
	RelAbs64
	// RelPC32 stores the 32-bit PC-relative value S+A-P, where P is the
	// address of the stored field. Branch displacement fields sit 4 bytes
	// before the end of their instruction, so compilers emit A = -4.
	RelPC32
	// RelPC8 stores the 8-bit PC-relative value S+A-P. The link fails if
	// the value does not fit in a signed byte.
	RelPC8
)

func (t RelocType) String() string {
	switch t {
	case RelAbs32:
		return "abs32"
	case RelAbs64:
		return "abs64"
	case RelPC32:
		return "pc32"
	case RelPC8:
		return "pc8"
	}
	return fmt.Sprintf("reloc?%d", byte(t))
}

// Size returns the number of bytes the relocated field occupies.
func (t RelocType) Size() int {
	switch t {
	case RelAbs32, RelPC32:
		return 4
	case RelAbs64:
		return 8
	case RelPC8:
		return 1
	}
	return 0
}

// Reloc records that the field at Offset within its section must be filled
// with a value derived from symbol Sym (an index into the file's symbol
// table) and the addend.
type Reloc struct {
	Offset uint32
	Type   RelocType
	Sym    int
	Addend int32
}

// Symbol is one entry in a file's symbol table.
type Symbol struct {
	Name string
	// Local symbols are invisible to other files; several files may each
	// define a local symbol with the same name. Global symbols must be
	// unique across a link.
	Local bool
	// Section indexes the defining section, or is SymUndef for symbols
	// imported from elsewhere.
	Section int
	// Value is the symbol's byte offset within its section.
	Value uint32
	// Size is the symbol's extent in bytes (function body or object size).
	Size uint32
	// Func marks function symbols; the rest are data objects.
	Func bool
}

// SymUndef marks a symbol with no defining section in this file.
const SymUndef = -1

// Defined reports whether the symbol is defined in its file.
func (s *Symbol) Defined() bool { return s.Section != SymUndef }

// Section is a contiguous, independently relocatable span of code or data.
type Section struct {
	Name   string
	Kind   SectionKind
	Align  uint32
	Data   []byte
	Size   uint32 // meaningful for BSS; otherwise len(Data)
	Relocs []Reloc
}

// Len returns the section's extent in bytes.
func (s *Section) Len() uint32 {
	if s.Kind == BSS {
		return s.Size
	}
	return uint32(len(s.Data))
}

// File is one relocatable SOF object file: the compilation of a single
// source file (one optimization unit, in the paper's terms).
type File struct {
	// SourcePath records which source file produced this object.
	SourcePath string
	// Compiler records the producing compiler's version stamp. Run-pre
	// matching does not require equal stamps, but mismatches are the
	// leading cause of spurious aborts, so tools surface them.
	Compiler string
	Sections []*Section
	Symbols  []*Symbol
}

// Section returns the section with the given name, or nil.
func (f *File) Section(name string) *Section {
	for _, s := range f.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Symbol returns the symbol with the given name, or nil. File-local symbol
// names are unique within one file.
func (f *File) Symbol(name string) *Symbol {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SymbolIndex returns the index of the named symbol, adding an undefined
// global entry if the file has none. The compiler uses this to create
// import references.
func (f *File) SymbolIndex(name string) int {
	for i, s := range f.Symbols {
		if s.Name == name {
			return i
		}
	}
	f.Symbols = append(f.Symbols, &Symbol{Name: name, Section: SymUndef})
	return len(f.Symbols) - 1
}

// AddSection appends a section and returns its index.
func (f *File) AddSection(s *Section) int {
	f.Sections = append(f.Sections, s)
	return len(f.Sections) - 1
}

// Section names. A build without per-object sections puts a unit's
// functions, initialized data, zero-initialized data and string literals
// in the shared sections TextSection, DataSection, BSSSection and
// RODataSection. A Ksplice pre/post build (paper section 3.2) gives each
// function, data object and string literal a section of its own, named
// by its kind's prefix followed by the function's or object's symbol
// (".text.do_brk", ".data.debug", ".bss.count") or, for a string
// literal, its index in the unit's string pool (".rodata.str.0"). Hook
// sections carry their stage after HookSectionPrefix
// (".ksplice.pre_apply").
const (
	TextSection   = ".text"
	DataSection   = ".data"
	BSSSection    = ".bss"
	RODataSection = ".rodata"

	FuncSectionPrefix   = TextSection + "."
	DataSectionPrefix   = DataSection + "."
	BSSSectionPrefix    = BSSSection + "."
	StringSectionPrefix = RODataSection + ".str."
	HookSectionPrefix   = ".ksplice."
)

// FuncNameOfSection extracts the function name from a per-function section
// name, or returns "" if the section is not a per-function text section.
func FuncNameOfSection(sectionName string) string {
	if strings.HasPrefix(sectionName, FuncSectionPrefix) {
		return sectionName[len(FuncSectionPrefix):]
	}
	return ""
}

// DataNameOfSection extracts the object name from a per-object data or
// bss section name, or returns "" if the section is neither.
func DataNameOfSection(sectionName string) string {
	for _, prefix := range [...]string{DataSectionPrefix, BSSSectionPrefix} {
		if name, ok := strings.CutPrefix(sectionName, prefix); ok {
			return name
		}
	}
	return ""
}

// IsStringSection reports whether a section holds string literals: the
// shared .rodata or a per-literal .rodata.str.N.
func IsStringSection(sectionName string) bool {
	return strings.HasPrefix(sectionName, RODataSection)
}

// Validate performs structural checks: reloc offsets in range, symbol
// section indices valid, reloc symbol indices valid.
func (f *File) Validate() error {
	for si, sec := range f.Sections {
		limit := sec.Len()
		for _, r := range sec.Relocs {
			if r.Sym < 0 || r.Sym >= len(f.Symbols) {
				return fmt.Errorf("obj: %s section %q reloc at %#x: bad symbol index %d",
					f.SourcePath, sec.Name, r.Offset, r.Sym)
			}
			if uint32(r.Type.Size()) == 0 || r.Offset+uint32(r.Type.Size()) > limit {
				return fmt.Errorf("obj: %s section %q reloc at %#x: out of range (section len %d)",
					f.SourcePath, sec.Name, r.Offset, limit)
			}
			if sec.Kind == BSS {
				return fmt.Errorf("obj: %s bss section %q has relocations", f.SourcePath, sec.Name)
			}
		}
		if sec.Align == 0 {
			return fmt.Errorf("obj: %s section %d %q has zero alignment", f.SourcePath, si, sec.Name)
		}
	}
	seen := make(map[string]bool, len(f.Symbols))
	for _, sym := range f.Symbols {
		if sym.Section != SymUndef && (sym.Section < 0 || sym.Section >= len(f.Sections)) {
			return fmt.Errorf("obj: %s symbol %q: bad section index %d", f.SourcePath, sym.Name, sym.Section)
		}
		if sym.Defined() && sym.Value+sym.Size > f.Sections[sym.Section].Len() {
			return fmt.Errorf("obj: %s symbol %q extends past section end", f.SourcePath, sym.Name)
		}
		if seen[sym.Name] {
			return fmt.Errorf("obj: %s duplicate symbol %q within one file", f.SourcePath, sym.Name)
		}
		seen[sym.Name] = true
	}
	return nil
}
