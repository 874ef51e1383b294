package minic

import (
	"fmt"
)

// Check resolves names, computes struct layouts, folds sizeof, inserts
// implicit conversions, and type-checks the unit. It mutates the AST in
// place. Conversions become explicit Cast nodes so that the code
// generator's output — and therefore pre-post differencing — sees exactly
// the arithmetic the language semantics imply.
func Check(u *Unit) error {
	c := &checker{unit: u, structs: map[string]*StructDef{}, globals: map[string]*Object{}}
	return c.run()
}

type checker struct {
	unit    *Unit
	structs map[string]*StructDef
	globals map[string]*Object

	fn     *FuncDecl // function being checked
	scopes []map[string]*Object
	loops  int // nesting depth for break/continue
}

type checkError struct{ err error }

func (c *checker) fail(pos Pos, format string, args ...any) {
	panic(checkError{fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))})
}

func (c *checker) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(checkError)
			if !ok {
				panic(r)
			}
			err = ce.err
		}
	}()

	// Struct table and layouts.
	for _, s := range c.unit.Structs {
		if c.structs[s.Name] != nil {
			c.fail(s.Pos, "struct %s redefined", s.Name)
		}
		c.structs[s.Name] = s
	}
	for _, s := range c.unit.Structs {
		c.layout(s, map[string]bool{})
	}

	// Global scope: functions first (mutual recursion), then variables in
	// order.
	for _, fn := range c.unit.Funcs {
		c.declareFunc(fn)
	}
	for _, g := range c.unit.Globals {
		c.declareGlobal(g)
	}

	// Check function bodies.
	for _, fn := range c.unit.Funcs {
		if fn.Body != nil {
			c.checkFunc(fn)
		}
	}

	// Global initializers must be constant.
	for _, g := range c.unit.Globals {
		c.checkGlobalInit(g)
	}

	// Hooks must name defined niladic functions.
	for _, h := range c.unit.Hooks {
		obj := c.globals[h.Func]
		if obj == nil || obj.Kind != ObjFunc {
			c.fail(h.Pos, "%s: %q is not a function", hookName(h.Kind), h.Func)
		}
		if len(obj.Func.Params) != 0 {
			c.fail(h.Pos, "%s: hook %q must take no parameters", hookName(h.Kind), h.Func)
		}
		h.Obj = obj
	}
	return nil
}

func hookName(k HookKind) string {
	for name, kind := range hookNames {
		if kind == k {
			return name
		}
	}
	return "ksplice hook"
}

// layout computes size, alignment and field offsets for s.
func (c *checker) layout(s *StructDef, active map[string]bool) {
	if s.Size > 0 {
		return
	}
	if active[s.Name] {
		c.fail(s.Pos, "struct %s contains itself", s.Name)
	}
	active[s.Name] = true
	defer delete(active, s.Name)

	off, align := 0, 1
	for _, f := range s.Fields {
		c.resolveType(f.Type, s.Pos, active)
		a := f.Type.Alignof()
		sz := f.Type.Sizeof()
		off = (off + a - 1) &^ (a - 1)
		f.Offset = off
		off += sz
		if a > align {
			align = a
		}
	}
	s.Align = align
	s.Size = (off + align - 1) &^ (align - 1)
	if s.Size == 0 {
		s.Size = align // empty structs occupy one alignment unit
	}
}

// resolveType binds struct references to their definitions and lays them
// out, recursively through arrays. Struct references behind pointers need
// the definition only if dereferenced, but MiniC requires visibility
// eagerly for simplicity — except behind pointers, where forward
// references must work (linked structures).
func (c *checker) resolveType(t *Type, pos Pos, active map[string]bool) {
	switch t.Kind {
	case TStruct:
		def, ok := c.structs[t.StructName]
		if !ok {
			c.fail(pos, "unknown struct %s", t.StructName)
		}
		t.Def = def
		c.layout(def, active)
	case TArray:
		c.resolveType(t.Elem, pos, active)
	case TPtr:
		// Bind lazily if the struct is known; pointers to undefined
		// structs are permitted until dereferenced.
		if t.Elem.Kind == TStruct {
			if def, ok := c.structs[t.Elem.StructName]; ok {
				t.Elem.Def = def
			}
		} else {
			c.resolveType(t.Elem, pos, active)
		}
	}
}

// completeStruct ensures a struct type used by value or dereferenced has a
// layout.
func (c *checker) completeStruct(t *Type, pos Pos) {
	if t.Kind != TStruct {
		return
	}
	if t.Def == nil {
		def, ok := c.structs[t.StructName]
		if !ok {
			c.fail(pos, "unknown struct %s", t.StructName)
		}
		t.Def = def
	}
	c.layout(t.Def, map[string]bool{})
}

func (c *checker) declareFunc(fn *FuncDecl) {
	for _, p := range fn.Params {
		c.resolveType(p.Type, fn.Pos, map[string]bool{})
		// MiniC passes aggregates by pointer only (the kernel style).
		if p.Type.Kind == TStruct {
			c.fail(fn.Pos, "%s: struct parameters are not supported; pass a pointer", fn.Name)
		}
	}
	c.resolveType(fn.Ret, fn.Pos, map[string]bool{})
	if fn.Ret.Kind == TStruct || fn.Ret.Kind == TArray {
		c.fail(fn.Pos, "%s: aggregate return types are not supported; return a pointer", fn.Name)
	}

	if prev, ok := c.globals[fn.Name]; ok {
		if prev.Kind != ObjFunc {
			c.fail(fn.Pos, "%s redeclared as a function", fn.Name)
		}
		if !prev.Type.Equal(fn.FuncType()) {
			c.fail(fn.Pos, "%s redeclared with a different type (was %s)", fn.Name, prev.Type)
		}
		if fn.Body != nil {
			if prev.Func.Body != nil {
				c.fail(fn.Pos, "%s redefined", fn.Name)
			}
			// The definition supersedes the prototype.
			prev.Func = fn
		}
		fn.Obj = prev
		return
	}
	obj := &Object{Name: fn.Name, Kind: ObjFunc, Type: fn.FuncType(), Func: fn, Sym: fn.Name}
	fn.Obj = obj
	c.globals[fn.Name] = obj
}

func (c *checker) declareGlobal(g *VarDecl) {
	c.resolveType(g.Type, g.Pos, map[string]bool{})
	if g.Type.Kind == TStruct {
		c.completeStruct(g.Type, g.Pos)
	}
	if g.Type == TypeVoid {
		c.fail(g.Pos, "variable %s has type void", g.Name)
	}
	if prev := c.globals[g.Name]; prev != nil {
		c.fail(g.Pos, "%s redeclared", g.Name)
	}
	obj := &Object{Name: g.Name, Kind: ObjGlobal, Type: g.Type, Var: g, Sym: g.Name}
	g.Obj = obj
	c.globals[g.Name] = obj
}

func (c *checker) checkGlobalInit(g *VarDecl) {
	c.checkInitConst(g, "global")
}

// checkInitConst validates that a global or static-local initializer is a
// link-time constant: an arithmetic constant, a string literal, the name
// of a function, or &global.
func (c *checker) checkInitConst(v *VarDecl, what string) {
	constOK := func(e Expr) bool {
		if _, err := FoldConst(e); err == nil {
			return true
		}
		switch n := e.(type) {
		case *StrLit:
			return true
		case *Ident:
			obj := c.globals[n.Name]
			if obj != nil && obj.Kind == ObjFunc {
				n.Obj = obj
				obj.Func.AddressTaken = true
				n.T = PtrTo(TypeVoid)
				return true
			}
			return false
		case *Unary:
			if n.Op == UAddr {
				if id, ok := n.X.(*Ident); ok {
					obj := c.globals[id.Name]
					if obj != nil && obj.Kind == ObjGlobal {
						id.Obj = obj
						id.T = obj.Type
						n.T = PtrTo(obj.Type)
						return true
					}
				}
			}
			return false
		}
		return false
	}
	if v.Init != nil && !constOK(v.Init) {
		c.fail(v.Pos, "%s %s initializer must be constant", what, v.Name)
	}
	for _, e := range v.InitList {
		if !constOK(e) {
			c.fail(v.Pos, "%s %s initializer element must be constant", what, v.Name)
		}
	}
	if v.Init != nil {
		if _, isStr := v.Init.(*StrLit); isStr {
			ok := v.Type.Kind == TArray && v.Type.Elem.IsInt() && v.Type.Elem.Size == 1
			ok = ok || (v.Type.IsPtr() && v.Type.Elem.IsInt() && v.Type.Elem.Size == 1)
			ok = ok || v.Type.Equal(PtrTo(TypeVoid))
			if !ok {
				c.fail(v.Pos, "string initializer for non-char type %s", v.Type)
			}
		}
	}
	if len(v.InitList) > 0 {
		if v.Type.Kind != TArray {
			c.fail(v.Pos, "brace initializer for non-array %s", v.Name)
		}
		if len(v.InitList) > v.Type.ArrayLen {
			c.fail(v.Pos, "too many initializers for %s", v.Name)
		}
	}
}

func (c *checker) pushScope() {
	c.scopes = append(c.scopes, map[string]*Object{})
}

func (c *checker) popScope() {
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *checker) declare(obj *Object, pos Pos) {
	top := c.scopes[len(c.scopes)-1]
	if top[obj.Name] != nil {
		c.fail(pos, "%s redeclared in this scope", obj.Name)
	}
	top[obj.Name] = obj
}

func (c *checker) lookup(name string) *Object {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if obj := c.scopes[i][name]; obj != nil {
			return obj
		}
	}
	return c.globals[name]
}

func (c *checker) checkFunc(fn *FuncDecl) {
	c.fn = fn
	c.pushScope()
	for _, p := range fn.Params {
		if p.Name == "" {
			c.fail(fn.Pos, "parameter of %s needs a name", fn.Name)
		}
		if p.Type == TypeVoid {
			c.fail(fn.Pos, "parameter %s has type void", p.Name)
		}
		obj := &Object{Name: p.Name, Kind: ObjParam, Type: p.Type}
		p.Obj = obj
		c.declare(obj, fn.Pos)
	}
	c.checkBlock(fn.Body)
	c.popScope()
	c.fn = nil
}

func (c *checker) checkBlock(b *Block) {
	c.pushScope()
	for i := range b.Stmts {
		b.Stmts[i] = c.checkStmt(b.Stmts[i])
	}
	c.popScope()
}

func (c *checker) checkStmt(s Stmt) Stmt {
	switch n := s.(type) {
	case *Block:
		c.checkBlock(n)
	case *If:
		n.Cond = c.checkCondExpr(n.Cond)
		n.Then = c.checkStmt(n.Then)
		if n.Else != nil {
			n.Else = c.checkStmt(n.Else)
		}
	case *While:
		n.Cond = c.checkCondExpr(n.Cond)
		c.loops++
		n.Body = c.checkStmt(n.Body)
		c.loops--
	case *For:
		c.pushScope()
		if n.Init != nil {
			n.Init = c.checkStmt(n.Init)
		}
		if n.Cond != nil {
			n.Cond = c.checkCondExpr(n.Cond)
		}
		if n.Post != nil {
			n.Post = c.checkStmt(n.Post)
		}
		c.loops++
		n.Body = c.checkStmt(n.Body)
		c.loops--
		c.popScope()
	case *Return:
		if n.Expr == nil {
			if c.fn.Ret != TypeVoid {
				c.fail(n.Pos, "return without value in %s returning %s", c.fn.Name, c.fn.Ret)
			}
		} else {
			if c.fn.Ret == TypeVoid {
				c.fail(n.Pos, "return with value in void function %s", c.fn.Name)
			}
			e := c.checkExpr(n.Expr)
			n.Expr = c.convert(e, c.fn.Ret)
		}
	case *Break:
		if c.loops == 0 {
			c.fail(n.Pos, "break outside loop")
		}
	case *Continue:
		if c.loops == 0 {
			c.fail(n.Pos, "continue outside loop")
		}
	case *ExprStmt:
		n.Expr = c.checkExpr(n.Expr)
	case *DeclStmt:
		c.checkLocalDecl(n)
	case *AsmStmt:
		c.fn.HasAsm = true
	}
	return s
}

func (c *checker) checkLocalDecl(d *DeclStmt) {
	v := d.Decl
	c.resolveType(v.Type, v.Pos, map[string]bool{})
	if v.Type.Kind == TStruct {
		c.completeStruct(v.Type, v.Pos)
	}
	if v.Type == TypeVoid {
		c.fail(v.Pos, "variable %s has type void", v.Name)
	}
	kind := ObjLocal
	if v.Static {
		kind = ObjStaticLocal
	}
	obj := &Object{Name: v.Name, Kind: kind, Type: v.Type, Var: v}
	if v.Static {
		// Static locals become unit-level data with a mangled local
		// symbol; the kernel symbol table will show several unrelated
		// "fn.count" style names only if functions collide, but distinct
		// files can still both have e.g. "read_note.notesize".
		obj.Sym = c.fn.Name + "." + v.Name
		c.fn.StaticLocals = append(c.fn.StaticLocals, v)
		c.checkInitConst(v, "static local")
	} else if v.Init != nil {
		e := c.checkExpr(v.Init)
		v.Init = c.convert(e, v.Type)
	} else if len(v.InitList) > 0 {
		c.fail(v.Pos, "brace initializers are only for static and global arrays")
	}
	v.Obj = obj
	c.declare(obj, v.Pos)
}

// checkCondExpr checks an expression used as a truth value.
func (c *checker) checkCondExpr(e Expr) Expr {
	x := c.checkExpr(e)
	if !x.Type().IsScalar() {
		c.fail(x.Position(), "condition has non-scalar type %s", x.Type())
	}
	return x
}

// convert coerces e to type to, inserting an implicit cast if needed.
func (c *checker) convert(e Expr, to *Type) Expr {
	from := e.Type()
	if from.Equal(to) {
		return e
	}
	fromOK := from.IsScalar() || from.Kind == TFunc
	if !fromOK || !to.IsScalar() {
		c.fail(e.Position(), "cannot convert %s to %s", from, to)
	}
	return &Cast{exprBase: exprBase{T: to, Pos: e.Position()}, X: e, Implicit: true}
}

// decay converts array-typed expressions to pointers to their first
// element and function designators to pointers.
func (c *checker) decay(e Expr) Expr {
	t := e.Type()
	switch t.Kind {
	case TArray:
		cast := &Cast{exprBase: exprBase{T: PtrTo(t.Elem), Pos: e.Position()}, X: e, Implicit: true}
		return cast
	case TFunc:
		if id, ok := e.(*Ident); ok && id.Obj != nil && id.Obj.Kind == ObjFunc {
			id.Obj.Func.AddressTaken = true
		}
		return &Cast{exprBase: exprBase{T: PtrTo(TypeVoid), Pos: e.Position()}, X: e, Implicit: true}
	}
	return e
}

func (c *checker) checkExpr(e Expr) Expr {
	return c.decay(c.checkExprNoDecay(e))
}

func (c *checker) checkExprNoDecay(e Expr) Expr {
	switch n := e.(type) {
	case *NumLit:
		return n

	case *StrLit:
		n.T = PtrTo(TypeChar)
		return n

	case *SizeofType:
		c.resolveType(n.Arg, n.Pos, map[string]bool{})
		if n.Arg.Kind == TStruct {
			c.completeStruct(n.Arg, n.Pos)
		}
		return &NumLit{exprBase: exprBase{T: TypeInt, Pos: n.Pos}, Val: int64(n.Arg.Sizeof())}

	case *Ident:
		obj := c.lookup(n.Name)
		if obj == nil {
			c.fail(n.Pos, "undeclared identifier %q", n.Name)
		}
		n.Obj = obj
		n.T = obj.Type
		return n

	case *Unary:
		return c.checkUnary(n)

	case *Binary:
		return c.checkBinary(n)

	case *Assign:
		return c.checkAssign(n)

	case *Cond:
		n.C = c.checkCondExpr(n.C)
		thenE := c.checkExpr(n.Then)
		elseE := c.checkExpr(n.Else)
		tt, et := thenE.Type(), elseE.Type()
		var res *Type
		switch {
		case tt.IsInt() && et.IsInt():
			res = Arith(tt, et)
		case tt.IsPtr() && et.IsPtr():
			res = tt
		case tt.IsPtr() && et.IsInt():
			res = tt
		case tt.IsInt() && et.IsPtr():
			res = et
		default:
			c.fail(n.Pos, "incompatible conditional arms %s and %s", tt, et)
		}
		n.Then = c.convert(thenE, res)
		n.Else = c.convert(elseE, res)
		n.T = res
		return n

	case *Call:
		return c.checkCall(n)

	case *Index:
		x := c.checkExpr(n.X)
		idx := c.checkExpr(n.I)
		if !x.Type().IsPtr() {
			c.fail(n.Pos, "indexing non-pointer type %s", x.Type())
		}
		if !idx.Type().IsInt() {
			c.fail(n.Pos, "array index has type %s", idx.Type())
		}
		elem := x.Type().Elem
		c.completeStruct(elem, n.Pos)
		if elem == TypeVoid {
			c.fail(n.Pos, "indexing void pointer")
		}
		n.X = x
		n.I = c.convert(idx, Promote(idx.Type()))
		n.Scale = elem.Sizeof()
		n.T = elem
		return n

	case *Member:
		x := c.checkExprNoDecay(n.X)
		st := x.Type()
		if n.Arrow {
			x = c.decay(x)
			st = x.Type()
			if !st.IsPtr() || st.Elem.Kind != TStruct {
				c.fail(n.Pos, "-> on non-struct-pointer type %s", st)
			}
			st = st.Elem
		} else if st.Kind != TStruct {
			c.fail(n.Pos, ". on non-struct type %s", st)
		}
		c.completeStruct(st, n.Pos)
		f := st.Def.FieldByName(n.Name)
		if f == nil {
			c.fail(n.Pos, "struct %s has no field %q", st.StructName, n.Name)
		}
		n.X = x
		n.Field = f
		n.T = f.Type
		return n

	case *Cast:
		// Explicit cast written in the source.
		c.resolveType(n.T, n.Pos, map[string]bool{})
		x := c.checkExpr(n.X)
		if n.T != TypeVoid && !n.T.IsScalar() {
			c.fail(n.Pos, "cast to non-scalar type %s", n.T)
		}
		if n.T != TypeVoid && !x.Type().IsScalar() {
			c.fail(n.Pos, "cast of non-scalar type %s", x.Type())
		}
		n.X = x
		return n
	}
	c.fail(e.Position(), "unhandled expression %T", e)
	return nil
}

// isLvalue reports whether e designates a storage location.
func isLvalue(e Expr) bool {
	switch n := e.(type) {
	case *Ident:
		return n.Obj != nil && n.Obj.Kind != ObjFunc
	case *Unary:
		return n.Op == UDeref
	case *Index:
		return true
	case *Member:
		return true
	}
	return false
}

func (c *checker) checkUnary(n *Unary) Expr {
	switch n.Op {
	case USizeof:
		x := c.checkExprNoDecay(n.X)
		t := x.Type()
		c.completeStruct(t, n.Pos)
		return &NumLit{exprBase: exprBase{T: TypeInt, Pos: n.Pos}, Val: int64(t.Sizeof())}

	case UNeg, UBitNot:
		x := c.checkExpr(n.X)
		if !x.Type().IsInt() {
			c.fail(n.Pos, "unary operator on non-integer type %s", x.Type())
		}
		t := Promote(x.Type())
		n.X = c.convert(x, t)
		n.T = t
		return n

	case UNot:
		n.X = c.checkCondExpr(n.X)
		n.T = TypeInt
		return n

	case UDeref:
		x := c.checkExpr(n.X)
		if !x.Type().IsPtr() {
			c.fail(n.Pos, "dereferencing non-pointer type %s", x.Type())
		}
		elem := x.Type().Elem
		if elem == TypeVoid {
			c.fail(n.Pos, "dereferencing void pointer")
		}
		c.completeStruct(elem, n.Pos)
		n.X = x
		n.T = elem
		return n

	case UAddr:
		x := c.checkExprNoDecay(n.X)
		if id, ok := x.(*Ident); ok && id.Obj != nil && id.Obj.Kind == ObjFunc {
			id.Obj.Func.AddressTaken = true
			n.X = x
			n.T = PtrTo(TypeVoid)
			return n
		}
		if !isLvalue(x) {
			c.fail(n.Pos, "address of non-lvalue")
		}
		n.X = x
		n.T = PtrTo(x.Type())
		return n

	case UPreInc, UPreDec, UPostInc, UPostDec:
		x := c.checkExprNoDecay(n.X)
		if !isLvalue(x) {
			c.fail(n.Pos, "increment of non-lvalue")
		}
		t := x.Type()
		if !t.IsScalar() {
			c.fail(n.Pos, "increment of non-scalar type %s", t)
		}
		n.X = x
		n.T = t
		return n
	}
	c.fail(n.Pos, "unhandled unary op %d", n.Op)
	return nil
}

func (c *checker) checkBinary(n *Binary) Expr {
	switch n.Op {
	case BLogAnd, BLogOr:
		n.X = c.checkCondExpr(n.X)
		n.Y = c.checkCondExpr(n.Y)
		n.T = TypeInt
		return n
	}

	x := c.checkExpr(n.X)
	y := c.checkExpr(n.Y)
	xt, yt := x.Type(), y.Type()

	switch n.Op {
	case BAdd, BSub:
		switch {
		case xt.IsPtr() && yt.IsInt():
			elem := xt.Elem
			c.completeStruct(elem, n.Pos)
			n.X = x
			n.Y = c.convert(y, Promote(yt))
			n.Scale = elem.Sizeof()
			n.T = xt
			return n
		case xt.IsInt() && yt.IsPtr() && n.Op == BAdd:
			elem := yt.Elem
			c.completeStruct(elem, n.Pos)
			n.X = y
			n.Y = c.convert(x, Promote(xt))
			n.Scale = elem.Sizeof()
			n.T = yt
			return n
		case xt.IsPtr() && yt.IsPtr() && n.Op == BSub:
			if !xt.Elem.Equal(yt.Elem) {
				c.fail(n.Pos, "subtracting incompatible pointers %s and %s", xt, yt)
			}
			c.completeStruct(xt.Elem, n.Pos)
			n.X = x
			n.Y = y
			n.Scale = xt.Elem.Sizeof() // divisor
			n.T = TypeInt
			return n
		}
	case BEq, BNe, BLt, BLe, BGt, BGe:
		if xt.IsPtr() || yt.IsPtr() {
			// Pointer comparisons: both converted to unsigned long of the
			// address; integer 0 allowed (NULL).
			n.X = c.convert(x, TypeUInt)
			n.Y = c.convert(y, TypeUInt)
			n.T = TypeInt
			return n
		}
	}

	if !xt.IsInt() || !yt.IsInt() {
		c.fail(n.Pos, "binary operator on %s and %s", xt, yt)
	}

	switch n.Op {
	case BShl, BShr:
		t := Promote(xt)
		n.X = c.convert(x, t)
		n.Y = c.convert(y, Promote(yt))
		n.T = t
		return n
	case BEq, BNe, BLt, BLe, BGt, BGe:
		t := Arith(xt, yt)
		n.X = c.convert(x, t)
		n.Y = c.convert(y, t)
		n.T = TypeInt
		return n
	default:
		t := Arith(xt, yt)
		n.X = c.convert(x, t)
		n.Y = c.convert(y, t)
		n.T = t
		return n
	}
}

func (c *checker) checkAssign(n *Assign) Expr {
	lhs := c.checkExprNoDecay(n.LHS)
	if !isLvalue(lhs) {
		c.fail(n.Pos, "assignment to non-lvalue")
	}
	lt := lhs.Type()
	if lt.Kind == TArray || lt.Kind == TStruct {
		c.fail(n.Pos, "assignment to aggregate type %s", lt)
	}
	rhs := c.checkExpr(n.RHS)

	if n.Op != AsnPlain && lt.IsPtr() {
		if n.Op != AsnAdd && n.Op != AsnSub {
			c.fail(n.Pos, "invalid compound assignment on pointer")
		}
		if !rhs.Type().IsInt() {
			c.fail(n.Pos, "pointer += non-integer")
		}
		c.completeStruct(lt.Elem, n.Pos)
		n.LHS = lhs
		n.RHS = c.convert(rhs, Promote(rhs.Type()))
		n.Scale = lt.Elem.Sizeof()
		n.T = lt
		return n
	}

	n.LHS = lhs
	n.RHS = c.convert(rhs, lt)
	n.T = lt
	return n
}

func (c *checker) checkCall(n *Call) Expr {
	// Direct call: callee is an identifier bound to a function.
	if id, ok := n.Callee.(*Ident); ok {
		if obj := c.lookup(id.Name); obj != nil && obj.Kind == ObjFunc {
			id.Obj = obj
			id.T = obj.Type
			fn := obj.Func
			if len(n.Args) != len(fn.Params) {
				c.fail(n.Pos, "call to %s with %d args, want %d", fn.Name, len(n.Args), len(fn.Params))
			}
			for i, a := range n.Args {
				arg := c.checkExpr(a)
				// Argument conversion to the parameter type: the implicit
				// cast whose code lives in the *caller*, so a prototype
				// change recompiles callers (paper section 3.1).
				n.Args[i] = c.convert(arg, fn.Params[i].Type)
			}
			n.T = fn.Ret
			return n
		}
	}
	// Indirect call through a pointer value. Arguments get the default
	// promotions; the result is int.
	callee := c.checkExpr(n.Callee)
	if !callee.Type().IsPtr() {
		c.fail(n.Pos, "call through non-pointer type %s", callee.Type())
	}
	n.Callee = callee
	for i, a := range n.Args {
		arg := c.checkExpr(a)
		n.Args[i] = c.convert(arg, Promote(arg.Type()))
	}
	n.T = TypeInt
	return n
}
