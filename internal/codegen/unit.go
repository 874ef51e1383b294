package codegen

import (
	"fmt"

	"gosplice/internal/minic"
	"gosplice/internal/obj"
)

// Compile translates a checked unit into a SOF object file. It mutates the
// AST (inlining); callers should re-parse rather than recompile the same
// Unit value with different options.
func Compile(u *minic.Unit, opts Options) (*obj.File, error) {
	if opts.Inline {
		inlineUnit(u, opts.InlineMaxNodes)
	}

	uc := &unitCompiler{
		u:       u,
		opts:    opts,
		file:    &obj.File{SourcePath: u.Path, Compiler: opts.Version},
		strSyms: map[string]string{},
	}
	if err := uc.compile(); err != nil {
		return nil, err
	}
	if err := uc.file.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: internal error compiling %s: %w", u.Path, err)
	}
	return uc.file, nil
}

type unitCompiler struct {
	u    *minic.Unit
	opts Options
	file *obj.File

	// String literal pool, in first-use order.
	strSyms map[string]string
	strList []string

	// pending name-based relocations per section index.
	pending map[int][]relocRef
}

func (uc *unitCompiler) intern(s string) string {
	if sym, ok := uc.strSyms[s]; ok {
		return sym
	}
	sym := fmt.Sprintf(".Lstr%d", len(uc.strList))
	uc.strSyms[s] = sym
	uc.strList = append(uc.strList, s)
	return sym
}

// usedFuncs returns the set of functions that must be emitted: non-static
// definitions always; static definitions only when referenced (after
// inlining), address-taken, or named by a hook — matching how a compiler
// discards unreferenced static functions.
func (uc *unitCompiler) usedFuncs() map[*minic.FuncDecl]bool {
	referenced := map[string]bool{}
	mark := func(n minic.Node) bool {
		if id, ok := n.(*minic.Ident); ok && id.Obj != nil && id.Obj.Kind == minic.ObjFunc {
			referenced[id.Obj.Name] = true
		}
		return true
	}
	for _, fn := range uc.u.Funcs {
		if fn.Body != nil {
			minic.Inspect(fn.Body, mark)
		}
	}
	for _, g := range uc.u.Globals {
		minic.Inspect(g.Init, mark)
		for _, e := range g.InitList {
			minic.Inspect(e, mark)
		}
	}
	for _, h := range uc.u.Hooks {
		referenced[h.Func] = true
	}

	out := map[*minic.FuncDecl]bool{}
	for _, fn := range uc.u.Funcs {
		if fn.Body == nil {
			continue
		}
		if !fn.Static || fn.AddressTaken || referenced[fn.Name] {
			out[fn] = true
		}
	}
	return out
}

func (uc *unitCompiler) compile() error {
	uc.pending = map[int][]relocRef{}
	used := uc.usedFuncs()

	// Deduplicate multiple declarations of the same function (prototype +
	// definition share an Object).
	var fns []*minic.FuncDecl
	seen := map[string]bool{}
	for _, fn := range uc.u.Funcs {
		if fn.Body == nil || !used[fn] || seen[fn.Name] {
			continue
		}
		seen[fn.Name] = true
		fns = append(fns, fn)
	}

	// Text.
	if uc.opts.FunctionSections {
		for _, fn := range fns {
			b := NewBuilder(obj.FuncSectionPrefix+fn.Name, false)
			b.BeginSym(fn.Name)
			if err := uc.genFunc(b, fn); err != nil {
				return err
			}
			b.EndSym(fn.Name)
			if err := uc.finishTextSection(b, []*minic.FuncDecl{fn}); err != nil {
				return err
			}
		}
	} else {
		b := NewBuilder(".text", true)
		for _, fn := range fns {
			b.Align(16)
			b.BeginSym(fn.Name)
			if err := uc.genFunc(b, fn); err != nil {
				return err
			}
			b.EndSym(fn.Name)
		}
		if err := uc.finishTextSection(b, fns); err != nil {
			return err
		}
	}

	// Data: globals, then each function's static locals (source order).
	if err := uc.emitData(fns); err != nil {
		return err
	}

	// String pool.
	uc.emitStrings()

	// Ksplice hook note sections.
	uc.emitHooks()

	// Resolve name-based relocations now that all defined symbols exist.
	// Section-index order keeps the undefined-symbol table deterministic.
	for si := range uc.file.Sections {
		refs, ok := uc.pending[si]
		if !ok {
			continue
		}
		sec := uc.file.Sections[si]
		for _, r := range refs {
			sec.Relocs = append(sec.Relocs, obj.Reloc{
				Offset: r.off, Type: r.typ,
				Sym: uc.file.SymbolIndex(r.sym), Addend: r.addend,
			})
		}
	}
	return nil
}

func (uc *unitCompiler) genFunc(b *Builder, fn *minic.FuncDecl) error {
	g := &funcGen{b: b, fn: fn, opts: uc.opts, intern: uc.intern}
	return g.gen()
}

// finishTextSection finalizes b and records function symbols and pending
// relocations.
func (uc *unitCompiler) finishTextSection(b *Builder, fns []*minic.FuncDecl) error {
	sec, exts, err := b.Finalize(obj.Text, 16)
	if err != nil {
		return err
	}
	si := uc.file.AddSection(sec)
	uc.pending[si] = b.PendingRelocs()
	for _, fn := range fns {
		ext, ok := exts[fn.Name]
		if !ok {
			return fmt.Errorf("codegen: no extent for %s", fn.Name)
		}
		uc.file.Symbols = append(uc.file.Symbols, &obj.Symbol{
			Name: fn.Name, Local: fn.Static, Section: si,
			Value: ext[0], Size: ext[1], Func: true,
		})
	}
	return nil
}

// dataObject is one variable to emit.
type dataObject struct {
	sym   string
	local bool
	v     *minic.VarDecl
}

func (uc *unitCompiler) emitData(fns []*minic.FuncDecl) error {
	var objs []dataObject
	for _, g := range uc.u.Globals {
		if g.Extern {
			continue
		}
		objs = append(objs, dataObject{sym: g.Obj.Sym, local: g.Static, v: g})
	}
	for _, fn := range fns {
		for _, sl := range fn.StaticLocals {
			objs = append(objs, dataObject{sym: sl.Obj.Sym, local: true, v: sl})
		}
	}

	type placed struct {
		do    dataObject
		bytes []byte // nil for bss
		size  uint32
		refs  []relocRef
	}
	var items []placed
	for _, do := range objs {
		v := do.v
		if v.Init == nil && len(v.InitList) == 0 {
			items = append(items, placed{do: do, size: uint32(v.Type.Sizeof())})
			continue
		}
		bytes, refs, err := uc.dataBytes(v)
		if err != nil {
			return err
		}
		items = append(items, placed{do: do, bytes: bytes, size: uint32(len(bytes)), refs: refs})
	}

	if uc.opts.DataSections {
		for _, it := range items {
			if it.bytes == nil {
				si := uc.file.AddSection(&obj.Section{
					Name: ".bss." + it.do.sym, Kind: obj.BSS,
					Align: uint32(it.do.v.Type.Alignof()), Size: it.size,
				})
				uc.addDataSym(it.do, si, 0, it.size)
			} else {
				si := uc.file.AddSection(&obj.Section{
					Name: obj.DataSectionPrefix + it.do.sym, Kind: obj.Data,
					Align: uint32(it.do.v.Type.Alignof()), Data: it.bytes,
				})
				uc.pending[si] = append(uc.pending[si], it.refs...)
				uc.addDataSym(it.do, si, 0, it.size)
			}
		}
		return nil
	}

	// Shared .data and .bss sections.
	var dataSec *obj.Section
	var dataRefs []relocRef
	var dataSyms []func(si int)
	var bssSec *obj.Section
	var bssSyms []func(si int)
	for _, it := range items {
		it := it
		align := uint32(it.do.v.Type.Alignof())
		if it.bytes == nil {
			if bssSec == nil {
				bssSec = &obj.Section{Name: ".bss", Kind: obj.BSS, Align: 8}
			}
			off := (bssSec.Size + align - 1) &^ (align - 1)
			bssSec.Size = off + it.size
			bssSyms = append(bssSyms, func(si int) { uc.addDataSymAt(it.do, si, off, it.size) })
		} else {
			if dataSec == nil {
				dataSec = &obj.Section{Name: ".data", Kind: obj.Data, Align: 8}
			}
			off := (uint32(len(dataSec.Data)) + align - 1) &^ (align - 1)
			for uint32(len(dataSec.Data)) < off {
				dataSec.Data = append(dataSec.Data, 0)
			}
			dataSec.Data = append(dataSec.Data, it.bytes...)
			for _, r := range it.refs {
				r.off += off
				dataRefs = append(dataRefs, r)
			}
			dataSyms = append(dataSyms, func(si int) { uc.addDataSymAt(it.do, si, off, it.size) })
		}
	}
	if dataSec != nil {
		si := uc.file.AddSection(dataSec)
		uc.pending[si] = append(uc.pending[si], dataRefs...)
		for _, f := range dataSyms {
			f(si)
		}
	}
	if bssSec != nil {
		si := uc.file.AddSection(bssSec)
		for _, f := range bssSyms {
			f(si)
		}
	}
	return nil
}

func (uc *unitCompiler) addDataSym(do dataObject, si int, off, size uint32) {
	uc.addDataSymAt(do, si, off, size)
}

func (uc *unitCompiler) addDataSymAt(do dataObject, si int, off, size uint32) {
	uc.file.Symbols = append(uc.file.Symbols, &obj.Symbol{
		Name: do.sym, Local: do.local, Section: si, Value: off, Size: size,
	})
}

// dataBytes serializes an initialized variable, returning relocation
// requests for address-valued initializers.
func (uc *unitCompiler) dataBytes(v *minic.VarDecl) ([]byte, []relocRef, error) {
	t := v.Type
	size := t.Sizeof()
	out := make([]byte, size)
	var refs []relocRef

	writeScalar := func(off int, ft *minic.Type, e minic.Expr) error {
		w := ft.Sizeof()
		if s, ok := e.(*minic.StrLit); ok {
			if ft.Kind == minic.TArray {
				// char buf[N] = "..."
				copy(out[off:], s.Val)
				return nil
			}
			refs = append(refs, relocRef{off: uint32(off), typ: obj.RelAbs32, sym: uc.intern(s.Val)})
			return nil
		}
		if id, ok := e.(*minic.Ident); ok && id.Obj != nil && id.Obj.Kind == minic.ObjFunc {
			refs = append(refs, relocRef{off: uint32(off), typ: obj.RelAbs32, sym: id.Obj.Sym})
			return nil
		}
		if un, ok := e.(*minic.Unary); ok && un.Op == minic.UAddr {
			if id, ok := un.X.(*minic.Ident); ok && id.Obj != nil {
				refs = append(refs, relocRef{off: uint32(off), typ: obj.RelAbs32, sym: id.Obj.Sym})
				return nil
			}
		}
		val, err := minic.FoldConst(e)
		if err != nil {
			return fmt.Errorf("%s: initializer for %s: %v", v.Pos, v.Name, err)
		}
		for i := 0; i < w && i < 8; i++ {
			out[off+i] = byte(val >> (8 * i))
		}
		return nil
	}

	switch {
	case v.Init != nil:
		if err := writeScalar(0, t, v.Init); err != nil {
			return nil, nil, err
		}
	case len(v.InitList) > 0:
		if t.Kind != minic.TArray {
			return nil, nil, fmt.Errorf("%s: brace initializer for non-array %s", v.Pos, v.Name)
		}
		ew := t.Elem.Sizeof()
		for i, e := range v.InitList {
			if err := writeScalar(i*ew, t.Elem, e); err != nil {
				return nil, nil, err
			}
		}
	}
	return out, refs, nil
}

func (uc *unitCompiler) emitStrings() {
	if len(uc.strList) == 0 {
		return
	}
	if uc.opts.DataSections {
		for i, s := range uc.strList {
			data := append([]byte(s), 0)
			si := uc.file.AddSection(&obj.Section{
				Name: fmt.Sprintf(".rodata.str.%d", i), Kind: obj.ROData, Align: 1, Data: data,
			})
			uc.file.Symbols = append(uc.file.Symbols, &obj.Symbol{
				Name: uc.strSyms[s], Local: true, Section: si, Size: uint32(len(data)),
			})
		}
		return
	}
	sec := &obj.Section{Name: ".rodata", Kind: obj.ROData, Align: 1}
	si := uc.file.AddSection(sec)
	for _, s := range uc.strList {
		off := uint32(len(sec.Data))
		sec.Data = append(sec.Data, s...)
		sec.Data = append(sec.Data, 0)
		uc.file.Symbols = append(uc.file.Symbols, &obj.Symbol{
			Name: uc.strSyms[s], Local: true, Section: si, Value: off, Size: uint32(len(s) + 1),
		})
	}
}

// emitHooks writes the .ksplice.* note sections: arrays of function
// pointers the update engine calls at the corresponding moments.
func (uc *unitCompiler) emitHooks() {
	byKind := map[minic.HookKind][]*minic.HookDecl{}
	var kinds []minic.HookKind
	for _, h := range uc.u.Hooks {
		if _, ok := byKind[h.Kind]; !ok {
			kinds = append(kinds, h.Kind)
		}
		byKind[h.Kind] = append(byKind[h.Kind], h)
	}
	for _, k := range kinds {
		hooks := byKind[k]
		sec := &obj.Section{Name: k.SectionName(), Kind: obj.Note, Align: 4}
		sec.Data = make([]byte, 4*len(hooks))
		si := uc.file.AddSection(sec)
		for i, h := range hooks {
			uc.pending[si] = append(uc.pending[si], relocRef{
				off: uint32(4 * i), typ: obj.RelAbs32, sym: h.Func,
			})
		}
	}
}
