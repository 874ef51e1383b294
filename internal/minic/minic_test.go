package minic

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := ParseString("test.mc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return u
}

func mustCheck(t *testing.T, src string) *Unit {
	t.Helper()
	u := mustParse(t, src)
	if err := Check(u); err != nil {
		t.Fatalf("check: %v", err)
	}
	return u
}

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("t.mc", func(string) (string, bool) {
		return `int x = 0x10; // comment
/* block
comment */ char c = 'a'; char nl = '\n'; char *s = "hi\t";
a->b <<= 2;`, true
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{
		KwInt, IDENT, AssignEq, NUMBER, Semi,
		KwChar, IDENT, AssignEq, CHARLIT, Semi,
		KwChar, IDENT, AssignEq, CHARLIT, Semi,
		KwChar, Star, IDENT, AssignEq, STRING, Semi,
		IDENT, Arrow, IDENT, Shl, AssignEq, NUMBER, Semi,
		EOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	if toks[3].Val != 0x10 {
		t.Errorf("hex literal = %d", toks[3].Val)
	}
	if toks[13].Val != '\n' {
		t.Errorf("escape literal = %d", toks[13].Val)
	}
	if toks[19].Text != "hi\t" {
		t.Errorf("string literal = %q", toks[19].Text)
	}
}

func TestLexIncludeAndDefine(t *testing.T) {
	files := map[string]string{
		"main.mc": "#include \"defs.h\"\nint v = LIMIT;\n",
		"defs.h":  "#define LIMIT 42\n",
	}
	provider := func(p string) (string, bool) { s, ok := files[p]; return s, ok }
	toks, err := LexAll("main.mc", provider)
	if err != nil {
		t.Fatal(err)
	}
	var num *Token
	for i := range toks {
		if toks[i].Kind == NUMBER {
			num = &toks[i]
		}
	}
	if num == nil || num.Val != 42 {
		t.Fatalf("LIMIT did not expand: %v", toks)
	}
	// Missing include is an error.
	if _, err := LexAll("missing.mc", provider); err == nil {
		t.Error("missing file lexed")
	}
	files["loop.mc"] = "#include \"loop.mc\"\n"
	if _, err := LexAll("loop.mc", provider); err == nil {
		t.Error("include cycle lexed")
	}
}

func TestParseFunctionsAndGlobals(t *testing.T) {
	u := mustParse(t, `
struct list { int val; struct list *next; };
static int debug;
int table[4] = {1, 2, 3, 4};
char *name = "dst";
static inline int min(int a, int b) { if (a < b) return a; return b; }
int walk(struct list *l);
int walk(struct list *l) {
	int n = 0;
	while (l) { n += 1; l = l->next; }
	return n;
}
`)
	if len(u.Structs) != 1 || u.Structs[0].Name != "list" || len(u.Structs[0].Fields) != 2 {
		t.Errorf("structs: %+v", u.Structs)
	}
	if len(u.Globals) != 3 {
		t.Fatalf("globals: %d", len(u.Globals))
	}
	if !u.Globals[0].Static || u.Globals[0].Name != "debug" {
		t.Errorf("debug decl: %+v", u.Globals[0])
	}
	if len(u.Globals[1].InitList) != 4 {
		t.Errorf("table init: %+v", u.Globals[1])
	}
	if len(u.Funcs) != 3 {
		t.Fatalf("funcs: %d", len(u.Funcs))
	}
	if !u.Funcs[0].InlineKw || !u.Funcs[0].Static {
		t.Errorf("min modifiers: %+v", u.Funcs[0])
	}
	if u.Funcs[1].Body != nil || u.Funcs[2].Body == nil {
		t.Error("prototype/definition confusion")
	}
}

func TestParseHooks(t *testing.T) {
	u := mustParse(t, `
void fixup(void) { return; }
ksplice_apply(fixup);
ksplice_pre_apply(fixup);
`)
	if len(u.Hooks) != 2 {
		t.Fatalf("hooks: %d", len(u.Hooks))
	}
	if u.Hooks[0].Kind != HookApply || u.Hooks[1].Kind != HookPreApply {
		t.Errorf("hook kinds: %+v", u.Hooks)
	}
	if u.Hooks[0].Kind.SectionName() != ".ksplice.apply" {
		t.Errorf("section name: %s", u.Hooks[0].Kind.SectionName())
	}
}

func TestParsePrecedence(t *testing.T) {
	u := mustCheck(t, `int f(int a, int b) { return a + b * 2 == a && b < 3 || !a; }`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	top, ok := ret.Expr.(*Binary)
	if !ok || top.Op != BLogOr {
		t.Fatalf("top = %T %+v", ret.Expr, ret.Expr)
	}
	land, ok := top.X.(*Binary)
	if !ok || land.Op != BLogAnd {
		t.Fatalf("lhs of || = %+v", top.X)
	}
}

func TestCheckImplicitConversions(t *testing.T) {
	u := mustCheck(t, `
long wide(long v) { return v; }
int caller(int x) { return (int)wide(x); }
`)
	// The argument x (int) must be implicitly cast to long in the caller.
	call := findCall(t, u.Funcs[1])
	cast, ok := call.Args[0].(*Cast)
	if !ok || !cast.Implicit || !cast.T.Equal(TypeLong) {
		t.Fatalf("arg conversion: %T %+v", call.Args[0], call.Args[0])
	}
}

func findCall(t *testing.T, fn *FuncDecl) *Call {
	t.Helper()
	var found *Call
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch n := e.(type) {
		case *Call:
			found = n
		case *Cast:
			walkExpr(n.X)
		case *Binary:
			walkExpr(n.X)
			walkExpr(n.Y)
		case *Unary:
			walkExpr(n.X)
		}
	}
	for _, s := range fn.Body.Stmts {
		if r, ok := s.(*Return); ok && r.Expr != nil {
			walkExpr(r.Expr)
		}
		if es, ok := s.(*ExprStmt); ok {
			walkExpr(es.Expr)
		}
	}
	if found == nil {
		t.Fatal("no call found")
	}
	return found
}

func TestCheckPointerArithScale(t *testing.T) {
	u := mustCheck(t, `
struct item { long a; long b; };
struct item *next(struct item *p) { return p + 1; }
`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	bin := ret.Expr.(*Binary)
	if bin.Scale != 16 {
		t.Errorf("scale = %d, want sizeof(struct item)=16", bin.Scale)
	}
}

func TestCheckStructLayout(t *testing.T) {
	u := mustCheck(t, `
struct mix { char c; int i; char d; long l; };
int probe(struct mix *m) { return m->i; }
`)
	s := u.Structs[0]
	offs := map[string]int{}
	for _, f := range s.Fields {
		offs[f.Name] = f.Offset
	}
	if offs["c"] != 0 || offs["i"] != 4 || offs["d"] != 8 || offs["l"] != 16 {
		t.Errorf("offsets: %v", offs)
	}
	if s.Size != 24 || s.Align != 8 {
		t.Errorf("size=%d align=%d", s.Size, s.Align)
	}
}

func TestCheckSizeof(t *testing.T) {
	u := mustCheck(t, `
struct pair { int a; int b; };
int f(void) { return sizeof(struct pair) + sizeof(long) + sizeof(int*); }
`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	v, err := FoldConst(ret.Expr)
	if err != nil {
		// The checker folds each sizeof; the sum is a constant tree.
		t.Fatalf("fold: %v (%+v)", err, ret.Expr)
	}
	if v != 8+8+4 {
		t.Errorf("sizeof sum = %d, want 20", v)
	}
}

func TestCheckStaticLocals(t *testing.T) {
	u := mustCheck(t, `
int counter(void) {
	static int count = 0;
	count += 1;
	return count;
}
`)
	fn := u.Funcs[0]
	if len(fn.StaticLocals) != 1 {
		t.Fatalf("static locals: %d", len(fn.StaticLocals))
	}
	if fn.StaticLocals[0].Obj.Sym != "counter.count" {
		t.Errorf("mangled sym = %q", fn.StaticLocals[0].Obj.Sym)
	}
	if fn.StaticLocals[0].Obj.Kind != ObjStaticLocal {
		t.Error("wrong object kind")
	}
}

func TestCheckFunctionPointers(t *testing.T) {
	u := mustCheck(t, `
int handler_a(int n) { return n; }
void *table[1] = { handler_a };
int dispatch(int n) {
	void *fp = table[0];
	return fp(n);
}
`)
	if !u.Funcs[0].AddressTaken {
		t.Error("handler_a not marked address-taken")
	}
	_ = u
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared", `int f(void) { return missing; }`, "undeclared"},
		{"badcall", `int g(int a) { return 0; } int f(void) { return g(); }`, "0 args"},
		{"breakless", `int f(void) { break; return 0; }`, "break outside loop"},
		{"voidvar", `void x;`, "type void"},
		{"redefined", `int f(void) { return 0; } int f(void) { return 1; }`, "redefined"},
		{"protoclash", `int f(int a); long f(int a) { return 0; }`, "different type"},
		{"nostruct", `int f(struct nothere *p) { return p->x; }`, "unknown struct"},
		{"nofield", `struct s { int a; }; int f(struct s *p) { return p->b; }`, "no field"},
		{"aggassign", `struct s { int a; }; struct s g1; struct s g2; int f(void) { g1 = g2; return 0; }`, "aggregate"},
		{"badhook", `int v; ksplice_apply(v);`, "not a function"},
		{"hookargs", `void h(int x) { return; } ksplice_apply(h);`, "no parameters"},
		{"selfstruct", `struct s { struct s inner; }; int f(struct s *p) { return 0; }`, "contains itself"},
		{"derefint", `int f(int x) { return *x; }`, "non-pointer"},
		{"constinit", `int z(void) { return 1; } int g = z();`, "must be constant"},
	}
	for _, c := range cases {
		u, err := ParseString("t.mc", c.src)
		if err == nil {
			err = Check(u)
		}
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int f( { return 0; }`,
		`int 3x;`,
		`int f(void) { return 1 + ; }`,
		`int a[-1];`,
		`int f(void) { if return; }`,
		`"toplevel";`,
	}
	for _, src := range cases {
		if _, err := ParseString("t.mc", src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
}

// TestParseLookaheadAtEOF ends the input inside the parser's lookahead
// window at each site that looks past the current token. The parser
// reads EOF there and fails with the same error as when it held the
// whole token stream.
func TestParseLookaheadAtEOF(t *testing.T) {
	cases := []struct{ src, want string }{
		{"struct X", "line 0: declaration needs a name"},
		{"int f(void", "line 0: expected ), found end of file"},
		{"int x = sizeof(int", "line 0: expected ), found end of file"},
		{"int x = (int", "line 0: expected ), found end of file"},
	}
	for _, c := range cases {
		_, err := ParseString("t.mc", c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestParseErrorBeforeLexError: the parser pulls tokens as it goes, so a
// parse error is reported before a lexer error later in the file.
func TestParseErrorBeforeLexError(t *testing.T) {
	_, err := ParseString("t.mc", "int ;\n@\n")
	if want := "t.mc:1: declaration needs a name"; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

func TestArithTypeRules(t *testing.T) {
	cases := []struct {
		a, b, want *Type
	}{
		{TypeChar, TypeChar, TypeInt},
		{TypeInt, TypeUInt, TypeUInt},
		{TypeInt, TypeLong, TypeLong},
		{TypeULong, TypeInt, TypeULong},
		{TypeUShort, TypeShort, TypeInt},
	}
	for _, c := range cases {
		if got := Arith(c.a, c.b); !got.Equal(c.want) {
			t.Errorf("Arith(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestTernaryAndCompoundAssign(t *testing.T) {
	mustCheck(t, `
int clamp(int v, int lo, int hi) {
	int r = v < lo ? lo : v;
	if (r > hi) r = hi;
	r += 0;
	r -= 0;
	return r;
}
`)
}

func TestAsmStatement(t *testing.T) {
	u := mustCheck(t, `void pause(void) { asm("trap 3"); }`)
	if !u.Funcs[0].HasAsm {
		t.Error("HasAsm not set")
	}
}
