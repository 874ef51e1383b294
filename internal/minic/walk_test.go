package minic

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// walkSrc holds every statement and expression kind, a DeclStmt with an
// Init and one with an InitList, and the optional children a walk must
// skip: an If without Else, a bare return, and a for (;;).
const walkSrc = `
struct s { int f; };
int g(int a, int b);
int walk(struct s *p, int n) {
	static int tbl[2] = {1, 2};
	int i = 3;
	if (n) i = 4; else i = 5;
	if (i) return;
	while (i < n) { i++; continue; }
	for (i = 0; i < 5; i += 1) n--;
	for (;;) break;
	asm("nop");
	p->f = g(tbl[i], (long)-n) ? sizeof(int) : sizeof(i);
	g(!n, *&i);
	"hi";
	return n;
}
`

// walkBody parses walkSrc (unchecked, so sizeof(int) stays a SizeofType)
// and returns the body of walk.
func walkBody(t *testing.T) *Block {
	t.Helper()
	u := mustParse(t, walkSrc)
	return u.Funcs[len(u.Funcs)-1].Body
}

// label names a node in a walk trace: identifiers and literals by their
// text, everything else by its node type.
func label(n Node) string {
	switch x := n.(type) {
	case *Ident:
		return x.Name
	case *NumLit:
		return strconv.FormatInt(x.Val, 10)
	case *StrLit:
		return strconv.Quote(x.Val)
	}
	return strings.TrimPrefix(fmt.Sprintf("%T", n), "*minic.")
}

// walkTrace is walkSrc's body in Inspect's documented pre-order.
var walkTrace = []string{
	"Block",
	"DeclStmt", "1", "2",
	"DeclStmt", "3",
	"If", "n", "ExprStmt", "Assign", "i", "4", "ExprStmt", "Assign", "i", "5",
	"If", "i", "Return",
	"While", "Binary", "i", "n", "Block", "ExprStmt", "Unary", "i", "Continue",
	"For", "ExprStmt", "Assign", "i", "0", "Binary", "i", "5", "ExprStmt", "Assign", "i", "1", "ExprStmt", "Unary", "n",
	"For", "Break",
	"AsmStmt",
	"ExprStmt", "Assign", "Member", "p",
	"Cond", "Call", "g", "Index", "tbl", "i", "Cast", "Unary", "n", "SizeofType", "Unary", "i",
	"ExprStmt", "Call", "g", "Unary", "n", "Unary", "Unary", "i",
	"ExprStmt", `"hi"`,
	"Return", "n",
}

func inspectTrace(n Node, prune func(Node) bool) []string {
	var out []string
	Inspect(n, func(n Node) bool {
		out = append(out, label(n))
		return !prune(n)
	})
	return out
}

func sameTrace(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s:\n got %v\nwant %v", what, got, want)
	}
}

func TestInspectVisitsEveryNodeOnceInOrder(t *testing.T) {
	got := inspectTrace(walkBody(t), func(Node) bool { return false })
	sameTrace(t, "Inspect order", got, walkTrace)
}

func TestInspectPrunes(t *testing.T) {
	pruned := func(n Node) bool {
		switch n.(type) {
		case *If, *Call:
			return true
		}
		return false
	}
	got := inspectTrace(walkBody(t), pruned)
	want := []string{
		"Block",
		"DeclStmt", "1", "2",
		"DeclStmt", "3",
		"If",
		"If",
		"While", "Binary", "i", "n", "Block", "ExprStmt", "Unary", "i", "Continue",
		"For", "ExprStmt", "Assign", "i", "0", "Binary", "i", "5", "ExprStmt", "Assign", "i", "1", "ExprStmt", "Unary", "n",
		"For", "Break",
		"AsmStmt",
		"ExprStmt", "Assign", "Member", "p",
		"Cond", "Call", "SizeofType", "Unary", "i",
		"ExprStmt", "Call",
		"ExprStmt", `"hi"`,
		"Return", "n",
	}
	sameTrace(t, "Inspect pruning If and Call", got, want)

	// Pruning the root visits the root alone.
	sameTrace(t, "Inspect pruning the root", inspectTrace(walkBody(t), func(Node) bool { return true }), []string{"Block"})
}

// wrapped marks the Casts TestRewrite wraps around every expression.
var wrapped = &Type{Kind: TVoid}

func isWrap(n Node) bool {
	c, ok := n.(*Cast)
	return ok && c.T == wrapped
}

// directOperands lists e's operands, using Inspect's pruning.
func directOperands(e Expr) []Node {
	var out []Node
	Inspect(e, func(n Node) bool {
		if n == Node(e) {
			return true
		}
		out = append(out, n)
		return false
	})
	return out
}

func TestRewriteReachesEverySlotChildrenFirst(t *testing.T) {
	body := walkBody(t)
	calls := 0
	Rewrite(body, func(e Expr) Expr {
		calls++
		if isWrap(e) {
			t.Errorf("Rewrite revisited its own result %v", e)
		}
		for _, op := range directOperands(e) {
			if !isWrap(op) {
				t.Errorf("%s rewritten before its operand %s", label(e), label(op))
			}
		}
		return &Cast{exprBase: exprBase{T: wrapped}, X: e}
	})

	// Every expression now sits under exactly one wrapper, and nothing
	// else moved: the trace is the original one with a wrapper before
	// each expression.
	var want []string
	exprs := 0
	Inspect(walkBody(t), func(n Node) bool {
		if _, ok := n.(Expr); ok {
			want = append(want, "wrap")
			exprs++
		}
		want = append(want, label(n))
		return true
	})
	var got []string
	Inspect(body, func(n Node) bool {
		if isWrap(n) {
			got = append(got, "wrap")
		} else {
			got = append(got, label(n))
		}
		return true
	})
	sameTrace(t, "trace after Rewrite", got, want)
	if calls != exprs {
		t.Errorf("f called %d times for %d expression slots", calls, exprs)
	}
}

func TestRewriteOfAnExpressionKeepsTheRoot(t *testing.T) {
	u := mustParse(t, `int f(int a) { return a + 1; }`)
	root := u.Funcs[0].Body.Stmts[0].(*Return).Expr
	Rewrite(root, func(e Expr) Expr {
		if id, ok := e.(*Ident); ok {
			return &NumLit{exprBase: id.exprBase, Val: 7}
		}
		return e
	})
	if u.Funcs[0].Body.Stmts[0].(*Return).Expr != root {
		t.Fatal("Rewrite replaced its root")
	}
	sameTrace(t, "rewritten a + 1", inspectTrace(root, func(Node) bool { return false }), []string{"Binary", "7", "1"})
}
