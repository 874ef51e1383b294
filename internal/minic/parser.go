package minic

import (
	"errors"
	"fmt"
)

// Parser is a recursive-descent parser that pulls its tokens straight
// from a Lexer: no token stream is ever materialized. The parser looks
// at most two tokens past the current one, so a four-slot ring holds
// every token it can still need.
type Parser struct {
	lex *Lexer
	// win is the lookahead ring: win[(head+i)&3] is the token i places
	// past the current one, for i < n. It always holds the current
	// token.
	win  [4]Token
	head int
	n    int
	unit *Unit
}

type parseError struct{ err error }

// Parse lexes and parses the translation unit rooted at path. Lexing
// and parsing interleave, so the first error in token order is the one
// reported: a parse error ahead of a later lexer error wins.
func Parse(path string, provider FileProvider) (u *Unit, err error) {
	l, err := NewLexer(path, provider)
	if err != nil {
		return nil, err
	}
	p := &Parser{lex: l, unit: &Unit{Path: path}}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			u, err = nil, pe.err
		}
	}()
	p.pull()
	p.parseUnit()
	return p.unit, nil
}

// ParseString parses a single standalone source string (tests and tools).
func ParseString(path, src string) (*Unit, error) {
	return Parse(path, func(p string) (string, bool) {
		if p == path {
			return src, true
		}
		return "", false
	})
}

func (p *Parser) fail(pos Pos, format string, args ...any) {
	panic(parseError{fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))})
}

// pull appends the lexer's next token to the window. A lexer error
// ends the parse with that error. Past the end of input the lexer
// keeps returning EOF, so a lookahead there reads EOF.
func (p *Parser) pull() {
	t, err := p.lex.Next()
	if err != nil {
		panic(parseError{err})
	}
	p.win[(p.head+p.n)&3] = t
	p.n++
}

func (p *Parser) tok() Token { return p.win[p.head] }

func (p *Parser) next() Token {
	t := p.win[p.head]
	p.head = (p.head + 1) & 3
	if p.n--; p.n == 0 {
		p.pull()
	}
	return t
}

// ahead returns the token i places past the current one; i is 1 or 2.
func (p *Parser) ahead(i int) Token {
	for p.n <= i {
		p.pull()
	}
	return p.win[(p.head+i)&3]
}

func (p *Parser) peek(k Kind) bool { return p.win[p.head].Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.peek(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) Token {
	if !p.peek(k) {
		p.fail(p.tok().Pos, "expected %s, found %s", k, p.tok())
	}
	return p.next()
}

// typeStart reports whether t can begin a type.
func typeStart(t Token) bool {
	switch t.Kind {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwUnsigned, KwSigned, KwStruct:
		return true
	}
	return false
}

func (p *Parser) parseUnit() {
	for !p.peek(EOF) {
		p.parseTop()
	}
}

func (p *Parser) parseTop() {
	t := p.tok()

	// Ksplice hook declarations: ksplice_apply(f);
	if t.Kind == IDENT {
		if hk, ok := hookNames[t.Text]; ok {
			p.next()
			p.expect(LParen)
			fn := p.expect(IDENT)
			p.expect(RParen)
			p.expect(Semi)
			p.unit.Hooks = append(p.unit.Hooks, &HookDecl{Kind: hk, Func: fn.Text, Pos: t.Pos})
			return
		}
		p.fail(t.Pos, "unexpected identifier %q at top level", t.Text)
	}

	// struct definition: struct Name { ... };
	if t.Kind == KwStruct && p.ahead(1).Kind == IDENT && p.ahead(2).Kind == LBrace {
		p.parseStructDef()
		return
	}

	p.parseDecl(true)
}

func (p *Parser) parseStructDef() {
	pos := p.expect(KwStruct).Pos
	name := p.expect(IDENT).Text
	p.expect(LBrace)
	def := &StructDef{Name: name, Pos: pos}
	for !p.accept(RBrace) {
		base := p.parseType()
		for {
			typ, fname, _ := p.parseDeclarator(base)
			if fname == "" {
				p.fail(p.tok().Pos, "struct field needs a name")
			}
			def.Fields = append(def.Fields, &Field{Name: fname, Type: typ})
			if !p.accept(Comma) {
				break
			}
		}
		p.expect(Semi)
	}
	p.expect(Semi)
	p.unit.Structs = append(p.unit.Structs, def)
}

// parseType parses a base type (no declarator): integer types with
// optional unsigned/signed, void, or struct references.
func (p *Parser) parseType() *Type {
	t := p.tok()
	unsigned := false
	signedSeen := false
	for {
		if p.accept(KwUnsigned) {
			unsigned = true
			continue
		}
		if p.accept(KwSigned) {
			signedSeen = true
			continue
		}
		break
	}
	switch p.tok().Kind {
	case KwVoid:
		if unsigned || signedSeen {
			p.fail(t.Pos, "void cannot be signed or unsigned")
		}
		p.next()
		return TypeVoid
	case KwChar:
		p.next()
		if unsigned {
			return TypeUChar
		}
		return TypeChar
	case KwShort:
		p.next()
		p.accept(KwInt) // "short int"
		if unsigned {
			return TypeUShort
		}
		return TypeShort
	case KwInt:
		p.next()
		if unsigned {
			return TypeUInt
		}
		return TypeInt
	case KwLong:
		p.next()
		p.accept(KwLong) // "long long" is still long
		p.accept(KwInt)
		if unsigned {
			return TypeULong
		}
		return TypeLong
	case KwStruct:
		if unsigned || signedSeen {
			p.fail(t.Pos, "struct cannot be signed or unsigned")
		}
		p.next()
		name := p.expect(IDENT).Text
		return &Type{Kind: TStruct, StructName: name}
	}
	if unsigned {
		return TypeUInt // bare "unsigned"
	}
	if signedSeen {
		return TypeInt
	}
	p.fail(t.Pos, "expected type, found %s", p.tok())
	return nil
}

// parseDeclarator parses {'*'} [IDENT] {'[' [N] ']'} applied to base. It
// returns the declared type, the name ("" for abstract declarators), and
// whether an unsized array "[]" was seen (length to be inferred from the
// initializer).
func (p *Parser) parseDeclarator(base *Type) (*Type, string, bool) {
	typ := base
	for p.accept(Star) {
		typ = PtrTo(typ)
	}
	name := ""
	if p.peek(IDENT) {
		name = p.next().Text
	}
	unsized := false
	// Arrays: int a[3][4] reads left to right, so collect and apply in
	// reverse for row-major layout.
	var dims []int
	for p.accept(LBracket) {
		if p.accept(RBracket) {
			dims = append(dims, -1)
			unsized = true
			continue
		}
		n := p.parseConstIntExpr()
		p.expect(RBracket)
		if n <= 0 {
			p.fail(p.tok().Pos, "array length must be positive")
		}
		dims = append(dims, int(n))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] == -1 {
			typ = ArrayOf(typ, 0) // length fixed up from initializer
		} else {
			typ = ArrayOf(typ, dims[i])
		}
	}
	return typ, name, unsized
}

// parseConstIntExpr parses a constant integer expression usable in array
// bounds: literals, sizeof, and +-*/ combinations thereof.
func (p *Parser) parseConstIntExpr() int64 {
	e := p.parseAssign()
	v, err := FoldConst(e)
	if err != nil {
		p.fail(e.Position(), "constant expression required: %v", err)
	}
	return v
}

// parseDecl parses a function or variable declaration. At top level
// (global=true) functions may have bodies and variables become globals.
func (p *Parser) parseDecl(global bool) {
	static := false
	extern := false
	inline := false
	for {
		switch {
		case p.accept(KwStatic):
			static = true
		case p.accept(KwExtern):
			extern = true
		case p.accept(KwInline):
			inline = true
		default:
			goto mods
		}
	}
mods:
	base := p.parseType()
	for {
		start := p.tok().Pos
		typ, name, unsized := p.parseDeclarator(base)
		if name == "" {
			p.fail(start, "declaration needs a name")
		}

		if p.peek(LParen) {
			// Function.
			fn := p.parseFuncRest(name, typ, static, inline, start)
			p.unit.Funcs = append(p.unit.Funcs, fn)
			if fn.Body != nil {
				return // definition consumes trailing brace, no semicolon
			}
			p.expect(Semi)
			return
		}

		vd := &VarDecl{Name: name, Type: typ, Static: static, Extern: extern, Pos: start}
		if p.accept(AssignEq) {
			if p.peek(LBrace) {
				p.next()
				for !p.accept(RBrace) {
					vd.InitList = append(vd.InitList, p.parseAssign())
					if !p.accept(RBrace) {
						p.expect(Comma)
					} else {
						break
					}
				}
			} else {
				vd.Init = p.parseAssign()
			}
		}
		if unsized {
			n := len(vd.InitList)
			if s, ok := vd.Init.(*StrLit); ok {
				n = len(s.Val) + 1
			}
			if n == 0 {
				p.fail(start, "unsized array %q needs an initializer", name)
			}
			fixUnsized(vd.Type, n)
		}
		p.unit.Globals = append(p.unit.Globals, vd)
		if p.accept(Comma) {
			continue
		}
		p.expect(Semi)
		return
	}
}

func fixUnsized(t *Type, n int) {
	for t.Kind == TArray {
		if t.ArrayLen == 0 {
			t.ArrayLen = n
			return
		}
		t = t.Elem
	}
}

func (p *Parser) parseFuncRest(name string, ret *Type, static, inline bool, pos Pos) *FuncDecl {
	p.expect(LParen)
	fn := &FuncDecl{Name: name, Ret: ret, Static: static, InlineKw: inline, Pos: pos}
	if p.peek(KwVoid) && p.ahead(1).Kind == RParen {
		p.next() // (void): no parameters
	} else if !p.peek(RParen) {
		for {
			ptype := p.parseType()
			t, pname, _ := p.parseDeclarator(ptype)
			if t.Kind == TArray {
				t = PtrTo(t.Elem) // arrays decay in parameter lists
			}
			fn.Params = append(fn.Params, &Param{Name: pname, Type: t})
			if !p.accept(Comma) {
				break
			}
		}
	}
	p.expect(RParen)
	if p.peek(LBrace) {
		fn.Body = p.parseBlock()
	}
	return fn
}

func (p *Parser) parseBlock() *Block {
	pos := p.expect(LBrace).Pos
	b := &Block{Pos: pos}
	for !p.accept(RBrace) {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	return b
}

func (p *Parser) parseStmt() Stmt {
	t := p.tok()
	switch t.Kind {
	case LBrace:
		return p.parseBlock()
	case KwIf:
		p.next()
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		then := p.parseStmt()
		var els Stmt
		if p.accept(KwElse) {
			els = p.parseStmt()
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.Pos}
	case KwWhile:
		p.next()
		p.expect(LParen)
		cond := p.parseExpr()
		p.expect(RParen)
		return &While{Cond: cond, Body: p.parseStmt(), Pos: t.Pos}
	case KwFor:
		p.next()
		p.expect(LParen)
		f := &For{Pos: t.Pos}
		if !p.accept(Semi) {
			if typeStart(p.tok()) || p.peek(KwStatic) {
				f.Init = p.parseLocalDecl()
			} else {
				f.Init = &ExprStmt{Expr: p.parseExpr(), Pos: p.tok().Pos}
				p.expect(Semi)
			}
		}
		if !p.peek(Semi) {
			f.Cond = p.parseExpr()
		}
		p.expect(Semi)
		if !p.peek(RParen) {
			f.Post = &ExprStmt{Expr: p.parseExpr(), Pos: p.tok().Pos}
		}
		p.expect(RParen)
		f.Body = p.parseStmt()
		return f
	case KwReturn:
		p.next()
		r := &Return{Pos: t.Pos}
		if !p.peek(Semi) {
			r.Expr = p.parseExpr()
		}
		p.expect(Semi)
		return r
	case KwBreak:
		p.next()
		p.expect(Semi)
		return &Break{Pos: t.Pos}
	case KwContinue:
		p.next()
		p.expect(Semi)
		return &Continue{Pos: t.Pos}
	case KwAsm:
		p.next()
		p.expect(LParen)
		s := p.expect(STRING)
		p.expect(RParen)
		p.expect(Semi)
		return &AsmStmt{Text: s.Text, Pos: t.Pos}
	case Semi:
		p.next()
		return &Block{Pos: t.Pos} // empty statement
	}
	if typeStart(t) || t.Kind == KwStatic {
		return p.parseLocalDecl()
	}
	e := p.parseExpr()
	p.expect(Semi)
	return &ExprStmt{Expr: e, Pos: t.Pos}
}

// parseLocalDecl parses one local declaration statement (single
// declarator; MiniC keeps local declarations simple).
func (p *Parser) parseLocalDecl() Stmt {
	pos := p.tok().Pos
	static := p.accept(KwStatic)
	base := p.parseType()
	typ, name, unsized := p.parseDeclarator(base)
	if name == "" {
		p.fail(pos, "local declaration needs a name")
	}
	vd := &VarDecl{Name: name, Type: typ, Static: static, Pos: pos}
	if p.accept(AssignEq) {
		if p.peek(LBrace) {
			p.next()
			for !p.accept(RBrace) {
				vd.InitList = append(vd.InitList, p.parseAssign())
				if !p.accept(RBrace) {
					p.expect(Comma)
				} else {
					break
				}
			}
		} else {
			vd.Init = p.parseAssign()
		}
	}
	if unsized {
		n := len(vd.InitList)
		if s, ok := vd.Init.(*StrLit); ok {
			n = len(s.Val) + 1
		}
		if n == 0 {
			p.fail(pos, "unsized array %q needs an initializer", name)
		}
		fixUnsized(vd.Type, n)
	}
	p.expect(Semi)
	return &DeclStmt{Decl: vd, Pos: pos}
}

// Expression parsing, precedence climbing.

func (p *Parser) parseExpr() Expr { return p.parseAssign() }

func (p *Parser) parseAssign() Expr {
	lhs := p.parseCond()
	var op AssignOp
	switch p.tok().Kind {
	case AssignEq:
		op = AsnPlain
	case PlusAssign:
		op = AsnAdd
	case MinusAssign:
		op = AsnSub
	case StarAssign:
		op = AsnMul
	case SlashAssign:
		op = AsnDiv
	default:
		return lhs
	}
	pos := p.next().Pos
	rhs := p.parseAssign()
	return &Assign{exprBase: exprBase{Pos: pos}, Op: op, LHS: lhs, RHS: rhs}
}

func (p *Parser) parseCond() Expr {
	c := p.parseBin(0)
	if !p.peek(Question) {
		return c
	}
	pos := p.next().Pos
	then := p.parseExpr()
	p.expect(Colon)
	els := p.parseCond()
	return &Cond{exprBase: exprBase{Pos: pos}, C: c, Then: then, Else: els}
}

// binary operator precedence table, lowest first.
var binLevels = [][]struct {
	kind Kind
	op   BinOp
}{
	{{OrOr, BLogOr}},
	{{AndAnd, BLogAnd}},
	{{Pipe, BOr}},
	{{Caret, BXor}},
	{{Amp, BAnd}},
	{{Eq, BEq}, {Ne, BNe}},
	{{Lt, BLt}, {Le, BLe}, {Gt, BGt}, {Ge, BGe}},
	{{Shl, BShl}, {Shr, BShr}},
	{{Plus, BAdd}, {Minus, BSub}},
	{{Star, BMul}, {Slash, BDiv}, {Percent, BMod}},
}

func (p *Parser) parseBin(level int) Expr {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs := p.parseBin(level + 1)
	for {
		matched := false
		for _, cand := range binLevels[level] {
			if p.peek(cand.kind) {
				pos := p.next().Pos
				rhs := p.parseBin(level + 1)
				lhs = &Binary{exprBase: exprBase{Pos: pos}, Op: cand.op, X: lhs, Y: rhs}
				matched = true
				break
			}
		}
		if !matched {
			return lhs
		}
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.tok()
	switch t.Kind {
	case Minus:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UNeg, X: p.parseUnary()}
	case Not:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UNot, X: p.parseUnary()}
	case Tilde:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UBitNot, X: p.parseUnary()}
	case Star:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UDeref, X: p.parseUnary()}
	case Amp:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UAddr, X: p.parseUnary()}
	case Inc:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UPreInc, X: p.parseUnary()}
	case Dec:
		p.next()
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UPreDec, X: p.parseUnary()}
	case KwSizeof:
		p.next()
		if p.peek(LParen) && typeStart(p.ahead(1)) {
			p.next()
			base := p.parseType()
			typ, name, _ := p.parseDeclarator(base)
			if name != "" {
				p.fail(t.Pos, "sizeof takes an abstract type")
			}
			p.expect(RParen)
			return &SizeofType{exprBase: exprBase{T: TypeInt, Pos: t.Pos}, Arg: typ}
		}
		x := p.parseUnary()
		// sizeof expr: needs the checked type; folded by the checker.
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: USizeof, X: x}
	case LParen:
		if typeStart(p.ahead(1)) {
			p.next()
			base := p.parseType()
			typ, name, _ := p.parseDeclarator(base)
			if name != "" {
				p.fail(t.Pos, "cast takes an abstract type")
			}
			p.expect(RParen)
			return &Cast{exprBase: exprBase{T: typ, Pos: t.Pos}, X: p.parseUnary()}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for {
		t := p.tok()
		switch t.Kind {
		case LParen:
			p.next()
			call := &Call{exprBase: exprBase{Pos: t.Pos}, Callee: e}
			for !p.peek(RParen) {
				call.Args = append(call.Args, p.parseAssign())
				if !p.peek(RParen) {
					p.expect(Comma)
				}
			}
			p.expect(RParen)
			e = call
		case LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(RBracket)
			e = &Index{exprBase: exprBase{Pos: t.Pos}, X: e, I: idx}
		case Dot:
			p.next()
			name := p.expect(IDENT).Text
			e = &Member{exprBase: exprBase{Pos: t.Pos}, X: e, Name: name}
		case Arrow:
			p.next()
			name := p.expect(IDENT).Text
			e = &Member{exprBase: exprBase{Pos: t.Pos}, X: e, Name: name, Arrow: true}
		case Inc:
			p.next()
			e = &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UPostInc, X: e}
		case Dec:
			p.next()
			e = &Unary{exprBase: exprBase{Pos: t.Pos}, Op: UPostDec, X: e}
		default:
			return e
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	t := p.tok()
	switch t.Kind {
	case NUMBER:
		p.next()
		typ := TypeInt
		if t.Val > 0x7fffffff || t.Val < -0x80000000 {
			typ = TypeLong
		}
		return &NumLit{exprBase: exprBase{T: typ, Pos: t.Pos}, Val: t.Val}
	case CHARLIT:
		p.next()
		return &NumLit{exprBase: exprBase{T: TypeInt, Pos: t.Pos}, Val: t.Val}
	case STRING:
		p.next()
		return &StrLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Text}
	case IDENT:
		p.next()
		return &Ident{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
	case LParen:
		p.next()
		e := p.parseExpr()
		p.expect(RParen)
		return e
	}
	p.fail(t.Pos, "expected expression, found %s", t)
	return nil
}

// FoldConst evaluates a parse-time constant expression (literals combined
// with arithmetic). Identifiers are not constants at parse time.
func FoldConst(e Expr) (int64, error) {
	switch n := e.(type) {
	case *NumLit:
		return n.Val, nil
	case *Unary:
		v, err := FoldConst(n.X)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case UNeg:
			return -v, nil
		case UBitNot:
			return ^v, nil
		case UNot:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *Binary:
		a, err := FoldConst(n.X)
		if err != nil {
			return 0, err
		}
		b, err := FoldConst(n.Y)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case BAdd:
			return a + b, nil
		case BSub:
			return a - b, nil
		case BMul:
			return a * b, nil
		case BDiv:
			if b == 0 {
				return 0, errors.New("division by zero in constant")
			}
			return a / b, nil
		case BMod:
			if b == 0 {
				return 0, errors.New("division by zero in constant")
			}
			return a % b, nil
		case BShl:
			return a << uint(b&63), nil
		case BShr:
			return a >> uint(b&63), nil
		case BAnd:
			return a & b, nil
		case BOr:
			return a | b, nil
		case BXor:
			return a ^ b, nil
		}
	case *Cast:
		return FoldConst(n.X)
	}
	return 0, fmt.Errorf("not a constant expression (%T)", e)
}
