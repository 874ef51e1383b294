package codegen

import (
	"gosplice/internal/minic"
)

// inlineUnit performs the compiler's automatic inlining: any call to a
// unit-visible function whose body is a single `return expr;` small enough
// to fit the node budget is replaced by the substituted expression. The
// `inline` keyword plays no part in the decision — exactly the gcc
// behaviour the paper warns about: you cannot tell where a function has
// been inlined by looking at the source (section 4.2).
//
// Cross-unit inlining happens the same way it does in real kernels:
// `static inline` helpers defined in headers are parsed into every
// including unit, so each unit inlines its own copy.
func inlineUnit(u *minic.Unit) {
	inl := &inliner{}
	// Iterate to a fixpoint so chains of small helpers flatten, with a
	// depth cap as a cycle guard.
	for pass := 0; pass < 8; pass++ {
		inl.changed = false
		for _, fn := range u.Funcs {
			if fn.Body == nil {
				continue
			}
			inl.caller = fn
			minic.Rewrite(fn.Body, inl.inline)
		}
		if !inl.changed {
			return
		}
	}
}

type inliner struct {
	caller  *minic.FuncDecl
	changed bool
}

// inlinable returns the body expression if fn is an inlining candidate.
func (il *inliner) inlinable(fn *minic.FuncDecl) (minic.Expr, bool) {
	if fn == nil || fn.Body == nil || fn.HasAsm || len(fn.StaticLocals) > 0 {
		return nil, false
	}
	if fn == il.caller {
		return nil, false // direct recursion
	}
	if len(fn.Body.Stmts) != 1 {
		return nil, false
	}
	ret, ok := fn.Body.Stmts[0].(*minic.Return)
	if !ok || ret.Expr == nil {
		return nil, false
	}
	if exprNodes(ret.Expr) > inlineMaxNodes {
		return nil, false
	}
	if referencesFunc(ret.Expr, fn) || takesParamAddress(ret.Expr) {
		return nil, false
	}
	return ret.Expr, true
}

// exprNodes counts the expression nodes of e, leaves included.
func exprNodes(e minic.Expr) int {
	n := 0
	minic.Inspect(e, func(minic.Node) bool {
		n++
		return true
	})
	return n
}

func referencesFunc(e minic.Expr, fn *minic.FuncDecl) bool {
	found := false
	minic.Inspect(e, func(x minic.Node) bool {
		if id, ok := x.(*minic.Ident); ok && id.Obj != nil && id.Obj.Func == fn {
			found = true
		}
		return !found
	})
	return found
}

func takesParamAddress(e minic.Expr) bool {
	found := false
	minic.Inspect(e, func(x minic.Node) bool {
		if un, ok := x.(*minic.Unary); ok && un.Op == minic.UAddr {
			if id, ok := un.X.(*minic.Ident); ok && id.Obj != nil && id.Obj.Kind == minic.ObjParam {
				found = true
			}
		}
		return !found
	})
	return found
}

// pure reports whether evaluating e has no side effects, so it can be
// duplicated or dropped during substitution.
func pure(e minic.Expr) bool {
	switch x := e.(type) {
	case *minic.NumLit, *minic.StrLit, *minic.Ident, *minic.SizeofType:
		return true
	case *minic.Unary:
		switch x.Op {
		case minic.UPreInc, minic.UPreDec, minic.UPostInc, minic.UPostDec:
			return false
		}
		return pure(x.X)
	case *minic.Binary:
		return pure(x.X) && pure(x.Y)
	case *minic.Cond:
		return pure(x.C) && pure(x.Then) && pure(x.Else)
	case *minic.Index:
		return pure(x.X) && pure(x.I)
	case *minic.Member:
		return pure(x.X)
	case *minic.Cast:
		return pure(x.X)
	}
	return false
}

// cheap reports whether e may be duplicated without changing cost class.
func cheap(e minic.Expr) bool {
	switch e.(type) {
	case *minic.NumLit, *minic.Ident:
		return true
	case *minic.Cast:
		return cheap(e.(*minic.Cast).X)
	}
	return false
}

func countParamUses(e minic.Expr, obj *minic.Object) int {
	n := 0
	minic.Inspect(e, func(x minic.Node) bool {
		if id, ok := x.(*minic.Ident); ok && id.Obj == obj {
			n++
		}
		return true
	})
	return n
}

// tryInline attempts to replace call with the callee's substituted body
// expression; it returns the replacement or nil.
func (il *inliner) tryInline(call *minic.Call) minic.Expr {
	fn := call.Direct()
	if fn == nil {
		return nil
	}
	body, ok := il.inlinable(fn)
	if !ok {
		return nil
	}
	// Each argument must be safe to substitute for its parameter: used
	// exactly once, or pure-and-cheap enough to duplicate/drop.
	sub := map[*minic.Object]minic.Expr{}
	for i, p := range fn.Params {
		uses := countParamUses(body, p.Obj)
		arg := call.Args[i]
		if uses != 1 && !(pure(arg) && (uses == 0 || cheap(arg))) {
			return nil
		}
		sub[p.Obj] = arg
	}
	return cloneExpr(body, sub)
}

// cloneExpr deep-copies e, replacing parameter references per sub.
func cloneExpr(e minic.Expr, sub map[*minic.Object]minic.Expr) minic.Expr {
	switch x := e.(type) {
	case *minic.NumLit:
		c := *x
		return &c
	case *minic.StrLit:
		c := *x
		return &c
	case *minic.SizeofType:
		c := *x
		return &c
	case *minic.Ident:
		if r, ok := sub[x.Obj]; ok {
			return cloneExpr(r, nil)
		}
		c := *x
		return &c
	case *minic.Unary:
		c := *x
		c.X = cloneExpr(x.X, sub)
		return &c
	case *minic.Binary:
		c := *x
		c.X = cloneExpr(x.X, sub)
		c.Y = cloneExpr(x.Y, sub)
		return &c
	case *minic.Assign:
		c := *x
		c.LHS = cloneExpr(x.LHS, sub)
		c.RHS = cloneExpr(x.RHS, sub)
		return &c
	case *minic.Cond:
		c := *x
		c.C = cloneExpr(x.C, sub)
		c.Then = cloneExpr(x.Then, sub)
		c.Else = cloneExpr(x.Else, sub)
		return &c
	case *minic.Call:
		c := *x
		c.Callee = cloneExpr(x.Callee, sub)
		c.Args = make([]minic.Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = cloneExpr(a, sub)
		}
		return &c
	case *minic.Index:
		c := *x
		c.X = cloneExpr(x.X, sub)
		c.I = cloneExpr(x.I, sub)
		return &c
	case *minic.Member:
		c := *x
		c.X = cloneExpr(x.X, sub)
		return &c
	case *minic.Cast:
		c := *x
		c.X = cloneExpr(x.X, sub)
		return &c
	}
	return e
}

// inline is the inliner's rewrite step, applied children-first to every
// expression of a caller's body: it replaces an inlinable call with the
// callee's substituted body expression and returns anything else as is.
func (il *inliner) inline(e minic.Expr) minic.Expr {
	if call, ok := e.(*minic.Call); ok {
		if repl := il.tryInline(call); repl != nil {
			il.changed = true
			return repl
		}
	}
	return e
}

// InlinedCalls reports, for analysis and the evaluation's inlining census,
// which functions the inliner would inline into at least one caller within
// the unit. It must be called on a freshly checked unit (before Compile,
// which performs the actual rewriting).
func InlinedCalls(u *minic.Unit) map[string][]string {
	il := &inliner{}
	out := map[string][]string{}
	for _, fn := range u.Funcs {
		if fn.Body == nil {
			continue
		}
		il.caller = fn
		minic.Inspect(fn.Body, func(n minic.Node) bool {
			if call, ok := n.(*minic.Call); ok {
				if callee := call.Direct(); callee != nil {
					if _, ok := il.inlinable(callee); ok {
						out[callee.Name] = append(out[callee.Name], fn.Name)
					}
				}
			}
			return true
		})
	}
	return out
}
