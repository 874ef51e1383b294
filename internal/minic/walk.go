package minic

// Node is a statement (Stmt) or an expression (Expr): the nodes Inspect
// visits and Rewrite descends through.
type Node any

// Inspect walks the tree rooted at n in pre-order, calling f for every
// statement and expression; when f returns false the node's children are
// skipped. Children are visited in source order: an If's Cond, Then,
// Else; a For's Init, Cond, Post, Body; a DeclStmt's Init, then each
// InitList element; a Call's Callee, then each argument. Absent (nil)
// children are skipped, and f is never called with nil.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *Block:
		for _, s := range x.Stmts {
			Inspect(s, f)
		}
	case *If:
		Inspect(x.Cond, f)
		Inspect(x.Then, f)
		Inspect(x.Else, f)
	case *While:
		Inspect(x.Cond, f)
		Inspect(x.Body, f)
	case *For:
		Inspect(x.Init, f)
		Inspect(x.Cond, f)
		Inspect(x.Post, f)
		Inspect(x.Body, f)
	case *Return:
		Inspect(x.Expr, f)
	case *ExprStmt:
		Inspect(x.Expr, f)
	case *DeclStmt:
		Inspect(x.Decl.Init, f)
		for _, e := range x.Decl.InitList {
			Inspect(e, f)
		}
	case *Unary:
		Inspect(x.X, f)
	case *Binary:
		Inspect(x.X, f)
		Inspect(x.Y, f)
	case *Assign:
		Inspect(x.LHS, f)
		Inspect(x.RHS, f)
	case *Cond:
		Inspect(x.C, f)
		Inspect(x.Then, f)
		Inspect(x.Else, f)
	case *Call:
		Inspect(x.Callee, f)
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *Index:
		Inspect(x.X, f)
		Inspect(x.I, f)
	case *Member:
		Inspect(x.X, f)
	case *Cast:
		Inspect(x.X, f)
	}
}

// Rewrite replaces every expression slot under n, children first: an
// expression's operands are rewritten before f is called on it, and the
// expression f returns is stored in the slot and not visited again.
// Slots are reached in the order Inspect visits them. The root n has no
// slot, so when n is an expression only its operands are replaced.
func Rewrite(n Node, f func(Expr) Expr) {
	switch x := n.(type) {
	case *Block:
		for _, s := range x.Stmts {
			Rewrite(s, f)
		}
	case *If:
		x.Cond = rewriteSlot(x.Cond, f)
		Rewrite(x.Then, f)
		Rewrite(x.Else, f)
	case *While:
		x.Cond = rewriteSlot(x.Cond, f)
		Rewrite(x.Body, f)
	case *For:
		Rewrite(x.Init, f)
		x.Cond = rewriteSlot(x.Cond, f)
		Rewrite(x.Post, f)
		Rewrite(x.Body, f)
	case *Return:
		x.Expr = rewriteSlot(x.Expr, f)
	case *ExprStmt:
		x.Expr = rewriteSlot(x.Expr, f)
	case *DeclStmt:
		x.Decl.Init = rewriteSlot(x.Decl.Init, f)
		for i, e := range x.Decl.InitList {
			x.Decl.InitList[i] = rewriteSlot(e, f)
		}
	case *Unary:
		x.X = rewriteSlot(x.X, f)
	case *Binary:
		x.X = rewriteSlot(x.X, f)
		x.Y = rewriteSlot(x.Y, f)
	case *Assign:
		x.LHS = rewriteSlot(x.LHS, f)
		x.RHS = rewriteSlot(x.RHS, f)
	case *Cond:
		x.C = rewriteSlot(x.C, f)
		x.Then = rewriteSlot(x.Then, f)
		x.Else = rewriteSlot(x.Else, f)
	case *Call:
		x.Callee = rewriteSlot(x.Callee, f)
		for i, a := range x.Args {
			x.Args[i] = rewriteSlot(a, f)
		}
	case *Index:
		x.X = rewriteSlot(x.X, f)
		x.I = rewriteSlot(x.I, f)
	case *Member:
		x.X = rewriteSlot(x.X, f)
	case *Cast:
		x.X = rewriteSlot(x.X, f)
	}
}

// rewriteSlot rewrites e's operands, then returns f's replacement for e;
// an empty slot stays empty.
func rewriteSlot(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	Rewrite(e, f)
	return f(e)
}
