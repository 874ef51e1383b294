package codegen

import (
	"fmt"

	"gosplice/internal/isa"
	"gosplice/internal/minic"
)

// funcGen generates code for one function body into a Builder.
//
// Code shape: a simple accumulator scheme. Every expression leaves its
// value in R0 in canonical register form (sign-extended for signed and
// 32-bit values, zero-extended for narrow unsigned values and pointers);
// intermediate values live on the machine stack, so the stack pointer is
// balanced around every subexpression. R1-R3 are scratch within single
// constructs and never live across a recursive generation call.
type funcGen struct {
	b  *Builder
	fn *minic.FuncDecl
	// intern resolves a string literal to its rodata symbol.
	intern    func(s string) string
	frameSize int32
	labelSeq  int
	epilogue  string
	breakLbl  []string
	contLbl   []string
	err       error
}

func (g *funcGen) fail(pos minic.Pos, format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("%s: codegen %s: "+format, append([]any{pos, g.fn.Name}, args...)...)
	}
}

func (g *funcGen) label(hint string) string {
	g.labelSeq++
	return fmt.Sprintf(".L%s.%s%d", g.fn.Name, hint, g.labelSeq)
}

// slotSize rounds a type's storage up to a whole 8-byte stack slot.
func slotSize(t *minic.Type) int32 {
	n := int32(t.Sizeof())
	return (n + 7) &^ 7
}

// assignFrame walks the body and assigns FP-relative offsets to
// parameters and every (non-static) local.
func (g *funcGen) assignFrame() {
	for i, p := range g.fn.Params {
		p.Obj.FrameOff = 16 + int32(i)*8
	}
	minic.Inspect(g.fn.Body, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok && d.Decl.Obj.Kind == minic.ObjLocal {
			g.frameSize += slotSize(d.Decl.Type)
			d.Decl.Obj.FrameOff = -g.frameSize
		}
		_, isExpr := n.(minic.Expr)
		return !isExpr // declarations are statements
	})
}

// gen generates the whole function.
func (g *funcGen) gen() error {
	g.assignFrame()
	g.epilogue = g.label("ret")

	// Prologue. Always at least TrampolineLen bytes.
	g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.FP})
	g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.FP, Rs: isa.SP})
	g.b.Emit(isa.Insn{Op: isa.OpADDI64, Rd: isa.SP, Imm: int64(-g.frameSize)})

	g.stmt(g.fn.Body)

	// Epilogue.
	g.b.Label(g.epilogue)
	g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.SP, Rs: isa.FP})
	g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.FP})
	g.b.Emit(isa.Insn{Op: isa.OpRET})
	return g.err
}

func (g *funcGen) stmt(s minic.Stmt) {
	if g.err != nil {
		return
	}
	switch n := s.(type) {
	case *minic.Block:
		for _, st := range n.Stmts {
			g.stmt(st)
		}

	case *minic.ExprStmt:
		g.value(n.Expr)

	case *minic.DeclStmt:
		v := n.Decl
		if v.Obj.Kind != minic.ObjLocal {
			return // static local: storage emitted as unit data
		}
		if v.Init != nil {
			g.value(v.Init)
			g.b.Emit(isa.Insn{Op: storeOp(v.Type), Rd: isa.FP, Disp: v.Obj.FrameOff, Rs: isa.R0})
		}

	case *minic.If:
		elseL := g.label("else")
		g.condFalse(n.Cond, elseL)
		g.stmt(n.Then)
		if n.Else != nil {
			endL := g.label("endif")
			g.b.Jmp(endL)
			g.b.Label(elseL)
			g.stmt(n.Else)
			g.b.Label(endL)
		} else {
			g.b.Label(elseL)
		}

	case *minic.While:
		condL, endL := g.label("while"), g.label("wend")
		g.b.Align(loopAlign)
		g.b.Label(condL)
		g.condFalse(n.Cond, endL)
		g.breakLbl = append(g.breakLbl, endL)
		g.contLbl = append(g.contLbl, condL)
		g.stmt(n.Body)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		g.b.Jmp(condL)
		g.b.Label(endL)

	case *minic.For:
		condL, postL, endL := g.label("for"), g.label("fpost"), g.label("fend")
		if n.Init != nil {
			g.stmt(n.Init)
		}
		g.b.Align(loopAlign)
		g.b.Label(condL)
		if n.Cond != nil {
			g.condFalse(n.Cond, endL)
		}
		g.breakLbl = append(g.breakLbl, endL)
		g.contLbl = append(g.contLbl, postL)
		g.stmt(n.Body)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		g.b.Label(postL)
		if n.Post != nil {
			g.stmt(n.Post)
		}
		g.b.Jmp(condL)
		g.b.Label(endL)

	case *minic.Return:
		if n.Expr != nil {
			g.value(n.Expr)
		}
		g.b.Jmp(g.epilogue)

	case *minic.Break:
		if len(g.breakLbl) == 0 {
			g.fail(n.Pos, "break outside loop")
			return
		}
		g.b.Jmp(g.breakLbl[len(g.breakLbl)-1])

	case *minic.Continue:
		if len(g.contLbl) == 0 {
			g.fail(n.Pos, "continue outside loop")
			return
		}
		g.b.Jmp(g.contLbl[len(g.contLbl)-1])

	case *minic.AsmStmt:
		if err := assembleInto(g.b, splitStmts(n.Text, n.Pos), ".Lasm."+g.fn.Name+"."); err != nil {
			g.fail(n.Pos, "%w", err)
		}

	default:
		g.fail(minic.Pos{}, "unhandled statement %T", s)
	}
}

// condFalse evaluates cond and branches to target when it is zero.
func (g *funcGen) condFalse(cond minic.Expr, target string) {
	g.value(cond)
	g.cmpZero(cond.Type())
	g.b.Jcc(isa.CCEQ, target)
}

// cmpZero compares R0 against zero at the width of t.
func (g *funcGen) cmpZero(t *minic.Type) {
	if t.IsInt() && t.Size == 8 {
		g.b.Emit(isa.Insn{Op: isa.OpCMPI64, Rd: isa.R0})
	} else {
		g.b.Emit(isa.Insn{Op: isa.OpCMPI32, Rd: isa.R0})
	}
}

// loadOp selects the load instruction that produces t's canonical
// register form.
func loadOp(t *minic.Type) isa.Op {
	if t.IsPtr() {
		return isa.OpLD32U
	}
	switch t.Size {
	case 1:
		if t.Unsigned {
			return isa.OpLD8U
		}
		return isa.OpLD8S
	case 2:
		if t.Unsigned {
			return isa.OpLD16U
		}
		return isa.OpLD16S
	case 8:
		return isa.OpLD64
	default:
		if t.Unsigned {
			// Canonical form for 32-bit values is sign-extended; unsigned
			// semantics are applied by opcode choice, not representation.
			return isa.OpLD32S
		}
		return isa.OpLD32S
	}
}

// storeOp selects the store for t's width.
func storeOp(t *minic.Type) isa.Op {
	if t.IsPtr() {
		return isa.OpST32
	}
	switch t.Size {
	case 1:
		return isa.OpST8
	case 2:
		return isa.OpST16
	case 8:
		return isa.OpST64
	default:
		return isa.OpST32
	}
}

// is64 reports whether arithmetic on t uses the 64-bit ALU.
func is64(t *minic.Type) bool { return t.IsInt() && t.Size == 8 }

// value generates e and leaves the result in R0.
func (g *funcGen) value(e minic.Expr) {
	if g.err != nil {
		return
	}
	switch n := e.(type) {
	case *minic.NumLit:
		if n.Val >= -0x80000000 && n.Val <= 0x7fffffff {
			g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R0, Imm: n.Val})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpMOVI64, Rd: isa.R0, Imm: n.Val})
		}

	case *minic.StrLit:
		g.addrOfSym(g.intern(n.Val))

	case *minic.Ident:
		obj := n.Obj
		switch obj.Kind {
		case minic.ObjFunc:
			g.fail(n.Position(), "function %s used as a value without decay", obj.Name)
		case minic.ObjLocal, minic.ObjParam:
			if n.T.Kind == minic.TArray || n.T.Kind == minic.TStruct {
				g.b.Emit(isa.Insn{Op: isa.OpLEA, Rd: isa.R0, Rs: isa.FP, Disp: obj.FrameOff})
			} else {
				g.b.Emit(isa.Insn{Op: loadOp(n.T), Rd: isa.R0, Rs: isa.FP, Disp: obj.FrameOff})
			}
		default: // global, static local
			g.addrOfSym(obj.Sym)
			if n.T.Kind != minic.TArray && n.T.Kind != minic.TStruct {
				g.b.Emit(isa.Insn{Op: loadOp(n.T), Rd: isa.R0, Rs: isa.R0})
			}
		}

	case *minic.Unary:
		g.unary(n)

	case *minic.Binary:
		g.binary(n)

	case *minic.Assign:
		g.assign(n)

	case *minic.Cond:
		elseL, endL := g.label("celse"), g.label("cend")
		g.condFalse(n.C, elseL)
		g.value(n.Then)
		g.b.Jmp(endL)
		g.b.Label(elseL)
		g.value(n.Else)
		g.b.Label(endL)

	case *minic.Call:
		g.call(n)

	case *minic.Index, *minic.Member:
		g.addr(e)
		t := e.Type()
		if t.Kind != minic.TArray && t.Kind != minic.TStruct {
			g.b.Emit(isa.Insn{Op: loadOp(t), Rd: isa.R0, Rs: isa.R0})
		}

	case *minic.Cast:
		g.cast(n)

	default:
		g.fail(e.Position(), "unhandled expression %T", e)
	}
}

// addrOfSym loads the absolute address of a named symbol into R0. A
// symbol in the same section still needs the relocation: absolute
// addresses are unknown until link time.
func (g *funcGen) addrOfSym(sym string) {
	g.b.MoviSym(isa.R0, sym)
}

// addr generates the address of an lvalue into R0.
func (g *funcGen) addr(e minic.Expr) {
	if g.err != nil {
		return
	}
	switch n := e.(type) {
	case *minic.Ident:
		switch n.Obj.Kind {
		case minic.ObjLocal, minic.ObjParam:
			g.b.Emit(isa.Insn{Op: isa.OpLEA, Rd: isa.R0, Rs: isa.FP, Disp: n.Obj.FrameOff})
		case minic.ObjFunc:
			g.addrOfSym(n.Obj.Sym)
		default:
			g.addrOfSym(n.Obj.Sym)
		}

	case *minic.Unary:
		if n.Op != minic.UDeref {
			g.fail(n.Position(), "address of non-lvalue unary %d", n.Op)
			return
		}
		g.value(n.X)

	case *minic.Index:
		g.value(n.X) // base pointer
		g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.R0})
		g.value(n.I)
		if n.Scale != 1 {
			g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R1, Imm: int64(n.Scale)})
			g.b.Emit(isa.Insn{Op: isa.OpMUL64, Rd: isa.R0, Rs: isa.R1})
		}
		g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.R1})
		g.b.Emit(isa.Insn{Op: isa.OpADD64, Rd: isa.R0, Rs: isa.R1})

	case *minic.Member:
		if n.Arrow {
			g.value(n.X)
		} else {
			g.addr(n.X)
		}
		if n.Field.Offset != 0 {
			g.b.Emit(isa.Insn{Op: isa.OpLEA, Rd: isa.R0, Rs: isa.R0, Disp: int32(n.Field.Offset)})
		}

	case *minic.StrLit:
		g.addrOfSym(g.intern(n.Val))

	case *minic.Cast:
		// Address of a decayed array: address of the underlying lvalue.
		g.addr(n.X)

	default:
		g.fail(e.Position(), "cannot take address of %T", e)
	}
}

func (g *funcGen) unary(n *minic.Unary) {
	switch n.Op {
	case minic.UNeg:
		g.value(n.X)
		if is64(n.T) {
			g.b.Emit(isa.Insn{Op: isa.OpNEG64, Rd: isa.R0})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpNEG32, Rd: isa.R0})
		}

	case minic.UBitNot:
		g.value(n.X)
		if is64(n.T) {
			g.b.Emit(isa.Insn{Op: isa.OpNOT64, Rd: isa.R0})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpNOT32, Rd: isa.R0})
		}

	case minic.UNot:
		g.value(n.X)
		g.cmpZero(n.X.Type())
		g.b.Emit(isa.Insn{Op: isa.OpSETCC, Rd: isa.R0, CC: isa.CCEQ})

	case minic.UDeref:
		g.value(n.X)
		t := n.T
		if t.Kind != minic.TArray && t.Kind != minic.TStruct {
			g.b.Emit(isa.Insn{Op: loadOp(t), Rd: isa.R0, Rs: isa.R0})
		}

	case minic.UAddr:
		g.addr(n.X)

	case minic.UPreInc, minic.UPreDec, minic.UPostInc, minic.UPostDec:
		g.incdec(n)

	default:
		g.fail(n.Position(), "unhandled unary op %d", n.Op)
	}
}

func (g *funcGen) incdec(n *minic.Unary) {
	t := n.T
	step := int64(1)
	if t.IsPtr() {
		step = int64(t.Elem.Sizeof())
	}
	g.addr(n.X)
	g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R2, Rs: isa.R0})
	g.b.Emit(isa.Insn{Op: loadOp(t), Rd: isa.R0, Rs: isa.R2})
	post := n.Op == minic.UPostInc || n.Op == minic.UPostDec
	if post {
		g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R3, Rs: isa.R0})
	}
	g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R1, Imm: step})
	dec := n.Op == minic.UPreDec || n.Op == minic.UPostDec
	var op isa.Op
	switch {
	case is64(t) || t.IsPtr():
		if dec {
			op = isa.OpSUB64
		} else {
			op = isa.OpADD64
		}
	default:
		if dec {
			op = isa.OpSUB32
		} else {
			op = isa.OpADD32
		}
	}
	g.b.Emit(isa.Insn{Op: op, Rd: isa.R0, Rs: isa.R1})
	g.b.Emit(isa.Insn{Op: storeOp(t), Rd: isa.R2, Disp: 0, Rs: isa.R0})
	if post {
		g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R0, Rs: isa.R3})
	}
}

// aluOp maps a MiniC binary operator at type t to an opcode.
func aluOp(op minic.BinOp, t *minic.Type) (isa.Op, bool) {
	wide := is64(t)
	type pair struct{ w32, w64 isa.Op }
	table := map[minic.BinOp]pair{
		minic.BAdd: {isa.OpADD32, isa.OpADD64},
		minic.BSub: {isa.OpSUB32, isa.OpSUB64},
		minic.BMul: {isa.OpMUL32, isa.OpMUL64},
		minic.BAnd: {isa.OpAND32, isa.OpAND64},
		minic.BOr:  {isa.OpOR32, isa.OpOR64},
		minic.BXor: {isa.OpXOR32, isa.OpXOR64},
		minic.BShl: {isa.OpSHL32, isa.OpSHL64},
	}
	if p, ok := table[op]; ok {
		if wide {
			return p.w64, true
		}
		return p.w32, true
	}
	switch op {
	case minic.BDiv:
		switch {
		case wide && t.Unsigned:
			return isa.OpDIV64U, true
		case wide:
			return isa.OpDIV64S, true
		case t.Unsigned:
			return isa.OpDIV32U, true
		default:
			return isa.OpDIV32S, true
		}
	case minic.BMod:
		switch {
		case wide && t.Unsigned:
			return isa.OpMOD64U, true
		case wide:
			return isa.OpMOD64S, true
		case t.Unsigned:
			return isa.OpMOD32U, true
		default:
			return isa.OpMOD32S, true
		}
	case minic.BShr:
		switch {
		case wide && t.Unsigned:
			return isa.OpSHR64, true
		case wide:
			return isa.OpSAR64, true
		case t.Unsigned:
			return isa.OpSHR32, true
		default:
			return isa.OpSAR32, true
		}
	}
	return 0, false
}

// relCC maps a comparison operator to a condition code honoring
// signedness.
func relCC(op minic.BinOp, unsigned bool) isa.CC {
	switch op {
	case minic.BEq:
		return isa.CCEQ
	case minic.BNe:
		return isa.CCNE
	case minic.BLt:
		if unsigned {
			return isa.CCULT
		}
		return isa.CCLT
	case minic.BLe:
		if unsigned {
			return isa.CCULE
		}
		return isa.CCLE
	case minic.BGt:
		if unsigned {
			return isa.CCUGT
		}
		return isa.CCGT
	default:
		if unsigned {
			return isa.CCUGE
		}
		return isa.CCGE
	}
}

func (g *funcGen) binary(n *minic.Binary) {
	switch n.Op {
	case minic.BLogAnd, minic.BLogOr:
		shortL, endL := g.label("sc"), g.label("scend")
		g.value(n.X)
		g.cmpZero(n.X.Type())
		if n.Op == minic.BLogAnd {
			g.b.Jcc(isa.CCEQ, shortL)
		} else {
			g.b.Jcc(isa.CCNE, shortL)
		}
		g.value(n.Y)
		g.cmpZero(n.Y.Type())
		g.b.Emit(isa.Insn{Op: isa.OpSETCC, Rd: isa.R0, CC: isa.CCNE})
		g.b.Jmp(endL)
		g.b.Label(shortL)
		if n.Op == minic.BLogAnd {
			g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R0})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R0, Imm: 1})
		}
		g.b.Label(endL)
		return

	case minic.BEq, minic.BNe, minic.BLt, minic.BLe, minic.BGt, minic.BGe:
		g.value(n.X)
		g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.R0})
		g.value(n.Y)
		g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R1, Rs: isa.R0})
		g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.R0})
		ot := n.X.Type()
		if is64(ot) {
			g.b.Emit(isa.Insn{Op: isa.OpCMP64, Rd: isa.R0, Rs: isa.R1})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpCMP32, Rd: isa.R0, Rs: isa.R1})
		}
		g.b.Emit(isa.Insn{Op: isa.OpSETCC, Rd: isa.R0, CC: relCC(n.Op, ot.IsInt() && ot.Unsigned)})
		return
	}

	// Pointer difference: (x - y) / scale.
	if n.Op == minic.BSub && n.X.Type().IsPtr() && n.Y.Type().IsPtr() {
		g.value(n.X)
		g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.R0})
		g.value(n.Y)
		g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R1, Rs: isa.R0})
		g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.R0})
		g.b.Emit(isa.Insn{Op: isa.OpSUB64, Rd: isa.R0, Rs: isa.R1})
		if n.Scale > 1 {
			g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R1, Imm: int64(n.Scale)})
			g.b.Emit(isa.Insn{Op: isa.OpDIV64S, Rd: isa.R0, Rs: isa.R1})
		}
		g.b.Emit(isa.Insn{Op: isa.OpSEXT32, Rd: isa.R0})
		return
	}

	g.value(n.X)
	g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.R0})
	g.value(n.Y)
	if n.Scale > 1 {
		g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R1, Imm: int64(n.Scale)})
		g.b.Emit(isa.Insn{Op: isa.OpMUL64, Rd: isa.R0, Rs: isa.R1})
	}
	g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R1, Rs: isa.R0})
	g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.R0})

	if n.T.IsPtr() {
		// Pointer ± integer.
		if n.Op == minic.BAdd {
			g.b.Emit(isa.Insn{Op: isa.OpADD64, Rd: isa.R0, Rs: isa.R1})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpSUB64, Rd: isa.R0, Rs: isa.R1})
		}
		g.b.Emit(isa.Insn{Op: isa.OpZEXT32, Rd: isa.R0})
		return
	}

	op, ok := aluOp(n.Op, n.T)
	if !ok {
		g.fail(n.Position(), "unhandled binary op %d", n.Op)
		return
	}
	g.b.Emit(isa.Insn{Op: op, Rd: isa.R0, Rs: isa.R1})
}

func (g *funcGen) assign(n *minic.Assign) {
	lt := n.LHS.Type()
	if n.Op == minic.AsnPlain {
		g.value(n.RHS)
		g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.R0})
		g.addr(n.LHS)
		g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R1, Rs: isa.R0})
		g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.R0})
		g.b.Emit(isa.Insn{Op: storeOp(lt), Rd: isa.R1, Disp: 0, Rs: isa.R0})
		return
	}

	// Compound assignment.
	g.addr(n.LHS)
	g.b.Emit(isa.Insn{Op: isa.OpPUSH, Rd: isa.R0})
	g.value(n.RHS)
	if n.Scale > 1 {
		g.b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: isa.R1, Imm: int64(n.Scale)})
		g.b.Emit(isa.Insn{Op: isa.OpMUL64, Rd: isa.R0, Rs: isa.R1})
	}
	g.b.Emit(isa.Insn{Op: isa.OpMOV, Rd: isa.R1, Rs: isa.R0})
	g.b.Emit(isa.Insn{Op: isa.OpPOP, Rd: isa.R2})
	g.b.Emit(isa.Insn{Op: loadOp(lt), Rd: isa.R0, Rs: isa.R2})

	var op isa.Op
	if lt.IsPtr() {
		if n.Op == minic.AsnAdd {
			op = isa.OpADD64
		} else {
			op = isa.OpSUB64
		}
	} else {
		binOp := map[minic.AssignOp]minic.BinOp{
			minic.AsnAdd: minic.BAdd, minic.AsnSub: minic.BSub,
			minic.AsnMul: minic.BMul, minic.AsnDiv: minic.BDiv,
		}[n.Op]
		var ok bool
		op, ok = aluOp(binOp, lt)
		if !ok {
			g.fail(n.Position(), "unhandled compound assignment")
			return
		}
	}
	g.b.Emit(isa.Insn{Op: op, Rd: isa.R0, Rs: isa.R1})
	if lt.IsPtr() {
		g.b.Emit(isa.Insn{Op: isa.OpZEXT32, Rd: isa.R0})
	}
	g.b.Emit(isa.Insn{Op: storeOp(lt), Rd: isa.R2, Disp: 0, Rs: isa.R0})
}

func (g *funcGen) call(n *minic.Call) {
	nargs := int64(len(n.Args))
	if nargs > 0 {
		g.b.Emit(isa.Insn{Op: isa.OpADDI64, Rd: isa.SP, Imm: -8 * nargs})
	}
	for i, a := range n.Args {
		g.value(a)
		// Arguments are stored at the width of their (converted) type,
		// like a stack-slot ABI: this is what makes a prototype change in
		// a header physically change every caller's object code (paper
		// section 3.1). The callee loads each parameter at the same
		// width.
		g.b.Emit(isa.Insn{Op: storeOp(a.Type()), Rd: isa.SP, Disp: int32(i) * 8, Rs: isa.R0})
	}
	if fn := n.Direct(); fn != nil {
		g.b.Call(fn.Obj.Sym)
	} else {
		g.value(n.Callee)
		g.b.Emit(isa.Insn{Op: isa.OpCALLR, Rd: isa.R0})
	}
	if nargs > 0 {
		g.b.Emit(isa.Insn{Op: isa.OpADDI64, Rd: isa.SP, Imm: 8 * nargs})
	}
}

// cast emits the conversion from n.X's canonical form to n.T's.
func (g *funcGen) cast(n *minic.Cast) {
	// Function designator decays to its address.
	if id, ok := n.X.(*minic.Ident); ok && id.Obj != nil && id.Obj.Kind == minic.ObjFunc {
		g.addrOfSym(id.Obj.Sym)
		return
	}
	// Array decay: address of the array.
	if n.X.Type().Kind == minic.TArray {
		g.value(n.X) // arrays evaluate to their address
		return
	}

	g.value(n.X)
	from, to := n.X.Type(), n.T

	if to == minic.TypeVoid {
		return
	}
	if to.IsPtr() {
		if from.IsPtr() {
			return
		}
		g.b.Emit(isa.Insn{Op: isa.OpZEXT32, Rd: isa.R0})
		return
	}
	// to is an integer type.
	switch to.Size {
	case 8:
		if from.IsPtr() {
			return // pointers are already zero-extended
		}
		if from.IsInt() && from.Size == 4 && from.Unsigned {
			// unsigned int widens by zero-extension; the canonical form
			// of 32-bit values is sign-extended, so normalize.
			g.b.Emit(isa.Insn{Op: isa.OpZEXT32, Rd: isa.R0})
		}
		// Signed and narrower sources are already canonical.
	case 4:
		g.b.Emit(isa.Insn{Op: isa.OpSEXT32, Rd: isa.R0})
	case 2:
		if to.Unsigned {
			g.b.Emit(isa.Insn{Op: isa.OpZEXT16, Rd: isa.R0})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpSEXT16, Rd: isa.R0})
		}
	case 1:
		if to.Unsigned {
			g.b.Emit(isa.Insn{Op: isa.OpZEXT8, Rd: isa.R0})
		} else {
			g.b.Emit(isa.Insn{Op: isa.OpSEXT8, Rd: isa.R0})
		}
	}
}
