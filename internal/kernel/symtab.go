package kernel

import (
	"fmt"
	"slices"
	"sort"

	"gosplice/internal/obj"
)

// Sym is one kallsyms entry. Like the real kallsyms, entries carry only
// name, address and extent — when two compilation units each define a
// local symbol with the same name, both entries appear and nothing in the
// table disambiguates them. (Owner records provenance for debugging and
// the evaluation's census; resolution code must not use it, mirroring the
// information actually available to a hot update system.)
type Sym struct {
	Name  string
	Addr  uint32
	Size  uint32
	Func  bool
	Local bool
	// Owner is the defining compilation unit or module name.
	Owner string
	// Module is "" for the base kernel.
	Module string
}

// symIndex is one linked image's symbols: all of them in image order,
// and each name's entries, also in image order. It is never written
// after newSymIndex, so a kernel and all its clones share it.
type symIndex struct {
	syms   []Sym
	byName map[string][]Sym
}

func newSymIndex(im *obj.Image, module string) *symIndex {
	ix := &symIndex{
		syms:   make([]Sym, len(im.Symbols)),
		byName: make(map[string][]Sym, len(im.Symbols)),
	}
	count := make(map[string]int, len(im.Symbols))
	for i, s := range im.Symbols {
		ix.syms[i] = Sym{
			Name: s.Name, Addr: s.Addr, Size: s.Size,
			Func: s.Func, Local: s.Local, Owner: s.File, Module: module,
		}
		count[s.Name]++
	}
	// Each name's entries are one capped run of a grouped copy, so an
	// append to a lookup result copies instead of overwriting a neighbour.
	grouped := make([]Sym, len(ix.syms))
	at := 0
	for _, s := range ix.syms {
		run, ok := ix.byName[s.Name]
		if !ok {
			n := count[s.Name]
			run, at = grouped[at:at:at+n], at+n
		}
		ix.byName[s.Name] = append(run, s)
	}
	return ix
}

// SymTab is the kernel's runtime symbol table: the boot image's
// kallsyms, shared by the kernel and every clone of it, and the loaded
// modules in load order, each carrying its own image's symbols. The
// module list is the kernel's only record of what is loaded. Load order
// is address order, because a module always loads past the end of every
// live one.
type SymTab struct {
	base *symIndex
	mods []*Module
}

// NewSymTab builds a symbol table from a linked kernel image.
func NewSymTab(im *obj.Image) *SymTab {
	return &SymTab{base: newSymIndex(im, "")}
}

// AddModule indexes a loaded module's symbols and appends it to the
// load-ordered module list.
func (st *SymTab) AddModule(mod *Module) {
	mod.syms = newSymIndex(mod.Image, mod.Name)
	st.mods = append(st.mods, mod)
}

// moduleIndex returns the named module's position in load order, or -1.
func (st *SymTab) moduleIndex(name string) int {
	return slices.IndexFunc(st.mods, func(m *Module) bool { return m.Name == name })
}

// Lookup returns every symbol with the given name: the boot image's in
// image order, then each loaded module's in load order. The result may
// be the table's own storage; callers only read it.
func (st *SymTab) Lookup(name string) []Sym {
	out := st.base.byName[name]
	for _, m := range st.mods {
		out = append(out, m.syms.byName[name]...)
	}
	return out
}

// ResolveUnique resolves a name to its address only if unambiguous. This
// is the naive symbol-table resolution of paper section 4.1: it fails
// outright for names like "debug" that appear more than once, which is
// why run-pre matching exists.
func (st *SymTab) ResolveUnique(name string) (uint32, error) {
	syms := st.Lookup(name)
	switch len(syms) {
	case 0:
		return 0, fmt.Errorf("kernel: symbol %q not found", name)
	case 1:
		return syms[0].Addr, nil
	default:
		return 0, fmt.Errorf("kernel: symbol %q is ambiguous (%d definitions)", name, len(syms))
	}
}

// BaseFunc returns the address of the one base-kernel function named
// name: the original entry, which an update trampolines and which
// callers keep entering through once a loaded replacement shares the
// name. A missing name and a duplicated one are both errors, because
// picking one copy could run the wrong code; address 0 is a valid link
// address.
func (st *SymTab) BaseFunc(name string) (uint32, error) {
	var addr uint32
	n := 0
	for _, s := range st.base.byName[name] {
		if s.Func {
			addr = s.Addr
			n++
		}
	}
	switch n {
	case 0:
		return 0, fmt.Errorf("kernel: no base kernel function %q", name)
	case 1:
		return addr, nil
	default:
		return 0, fmt.Errorf("kernel: symbol %q names %d base kernel functions", name, n)
	}
}

// All returns a copy of every symbol, address-sorted.
func (st *SymTab) All() []Sym {
	out := slices.Clone(st.base.syms)
	for _, m := range st.mods {
		out = append(out, m.syms.syms...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// AmbiguityStats reports the symbol-name ambiguity census the paper gives
// for Linux 2.6.27 (section 6.3): how many symbols share their name with
// another symbol, and how many compilation units contain at least one
// such symbol.
type AmbiguityStats struct {
	TotalSymbols     int
	AmbiguousSymbols int
	TotalUnits       int
	UnitsWithAmbig   int
}

// Ambiguity computes the census over the base kernel's symbols; loaded
// modules do not change it.
func (st *SymTab) Ambiguity() AmbiguityStats {
	var stats AmbiguityStats
	unitHas := map[string]bool{}
	units := map[string]bool{}
	for _, s := range st.base.syms {
		stats.TotalSymbols++
		units[s.Owner] = true
		if len(st.base.byName[s.Name]) > 1 {
			stats.AmbiguousSymbols++
			unitHas[s.Owner] = true
		}
	}
	stats.TotalUnits = len(units)
	stats.UnitsWithAmbig = len(unitHas)
	return stats
}
