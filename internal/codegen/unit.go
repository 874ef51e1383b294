package codegen

import (
	"fmt"
	"strconv"

	"gosplice/internal/minic"
	"gosplice/internal/obj"
)

// Compile translates a checked unit into a SOF object file. It mutates the
// AST (inlining); callers should re-parse rather than recompile the same
// Unit value with different options.
func Compile(u *minic.Unit, opts Options) (*obj.File, error) {
	if opts.Inline {
		inlineUnit(u)
	}
	uc := &unitCompiler{u: u, w: newObjWriter(u.Path, opts), strSyms: map[string]string{}}
	if err := uc.compile(); err != nil {
		return nil, err
	}
	return uc.w.finish()
}

type unitCompiler struct {
	u *minic.Unit
	w *objWriter

	// String literal pool, in first-use order.
	strSyms map[string]string
	strList []string
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
	used := uc.usedFuncs()
	var fns []*minic.FuncDecl
	for _, fn := range uc.u.Funcs {
		if fn.Body != nil && used[fn] {
			fns = append(fns, fn)
		}
	}
	err := emitText(uc.w, fns,
		func(fn *minic.FuncDecl) (string, bool) { return fn.Name, fn.Static },
		func(b *Builder, fn *minic.FuncDecl) error {
			return (&funcGen{b: b, fn: fn, intern: uc.intern}).gen()
		})
	if err != nil {
		return err
	}
	// Data: globals, then each function's static locals (source order),
	// then the string pool.
	objs, err := uc.dataObjs(fns)
	if err != nil {
		return err
	}
	uc.w.pack(objs)
	uc.emitHooks()
	return nil
}

// dataObjs lists the unit's variables and string literals for pack.
func (uc *unitCompiler) dataObjs(fns []*minic.FuncDecl) ([]dataObj, error) {
	var objs []dataObj
	addVar := func(sym string, local bool, v *minic.VarDecl) error {
		o := dataObj{
			area: areaBSS, name: sym, sym: sym, local: local,
			align: uint32(v.Type.Alignof()), size: uint32(v.Type.Sizeof()),
		}
		if v.Init != nil || len(v.InitList) > 0 {
			bytes, refs, err := uc.dataBytes(v)
			if err != nil {
				return err
			}
			o.area, o.bytes, o.size, o.refs = areaData, bytes, uint32(len(bytes)), refs
		}
		objs = append(objs, o)
		return nil
	}
	for _, g := range uc.u.Globals {
		if !g.Extern {
			if err := addVar(g.Obj.Sym, g.Static, g); err != nil {
				return nil, err
			}
		}
	}
	for _, fn := range fns {
		for _, sl := range fn.StaticLocals {
			if err := addVar(sl.Obj.Sym, true, sl); err != nil {
				return nil, err
			}
		}
	}
	// Every literal is interned by now: the NUL-terminated copies share
	// one buffer sized up front.
	n := 0
	for _, s := range uc.strList {
		n += len(s) + 1
	}
	pool := make([]byte, 0, n)
	for i, s := range uc.strList {
		at := len(pool)
		pool = append(append(pool, s...), 0)
		objs = append(objs, dataObj{
			area: areaStrings, name: strconv.Itoa(i), sym: uc.strSyms[s], local: true,
			align: 1, bytes: pool[at:len(pool):len(pool)], size: uint32(len(pool) - at),
		})
	}
	return objs, nil
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
		refs := make([]relocRef, len(hooks))
		for i, h := range hooks {
			refs[i] = relocRef{off: uint32(4 * i), typ: obj.RelAbs32, sym: h.Func}
		}
		uc.w.add(sec, refs)
	}
}
