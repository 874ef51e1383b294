package minic

import "gosplice/internal/obj"

// Unit is the AST of one translation unit (one compilation unit and, with
// our compiler, one optimization unit).
type Unit struct {
	Path    string
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDecl
	Hooks   []*HookDecl
}

// StructDef defines a struct type. Size/Align/field offsets are filled by
// the checker.
type StructDef struct {
	Name   string
	Fields []*Field
	Size   int
	Align  int
	Pos    Pos
}

// Field is one struct member.
type Field struct {
	Name   string
	Type   *Type
	Offset int
}

// FieldByName returns the named field, or nil.
func (s *StructDef) FieldByName(name string) *Field {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ObjKind classifies a named object binding.
type ObjKind int

const (
	ObjGlobal ObjKind = iota
	ObjFunc
	ObjParam
	ObjLocal
	ObjStaticLocal
)

// Object is the semantic binding of a name: one variable, parameter or
// function. The checker creates Objects; the code generator decorates
// them with storage (frame offsets or symbol names).
type Object struct {
	Name string
	Kind ObjKind
	Type *Type

	Var  *VarDecl  // ObjGlobal/ObjLocal/ObjStaticLocal
	Func *FuncDecl // ObjFunc

	// FrameOff is the FP-relative offset assigned by the code generator
	// for params and locals.
	FrameOff int32
	// Sym is the object-file symbol name for globals, functions and
	// static locals (static locals are mangled "func.var").
	Sym string
}

// VarDecl declares a variable (global, local, or static local).
type VarDecl struct {
	Name   string
	Type   *Type
	Static bool
	Extern bool
	// Init is the scalar initializer, nil if none. InitList is the brace
	// initializer for arrays. Exactly one may be set.
	Init     Expr
	InitList []Expr
	Obj      *Object
	Pos      Pos
}

// Param is one function parameter.
type Param struct {
	Name string
	Type *Type
	Obj  *Object
}

// FuncDecl declares or defines a function.
type FuncDecl struct {
	Name   string
	Ret    *Type
	Params []*Param
	Static bool
	// InlineKw records whether the source says "inline". The compiler's
	// inliner does not consult it (it inlines by size, as gcc does); the
	// evaluation reports it (paper section 6.3).
	InlineKw bool
	Body     *Block // nil for a prototype
	Obj      *Object
	Pos      Pos

	// HasAsm is set by the checker if the body contains asm statements;
	// such functions are never inlined.
	HasAsm bool
	// AddressTaken is set by the checker if the function's address is
	// used as a value; such functions are never inlined away.
	AddressTaken bool
	// StaticLocals collects the function's static local variables; the
	// code generator emits them as unit-level data with mangled local
	// symbols ("func.var").
	StaticLocals []*VarDecl
}

// FuncType returns the function's type.
func (f *FuncDecl) FuncType() *Type {
	params := make([]*Type, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.Type
	}
	return &Type{Kind: TFunc, Ret: f.Ret, Params: params}
}

// HookKind enumerates the Ksplice update hooks of paper section 5.3.
type HookKind int

const (
	HookApply HookKind = iota
	HookPreApply
	HookPostApply
	HookReverse
	HookPreReverse
	HookPostReverse
)

var hookNames = map[string]HookKind{
	"ksplice_apply":        HookApply,
	"ksplice_pre_apply":    HookPreApply,
	"ksplice_post_apply":   HookPostApply,
	"ksplice_reverse":      HookReverse,
	"ksplice_pre_reverse":  HookPreReverse,
	"ksplice_post_reverse": HookPostReverse,
}

// SectionName returns the .ksplice.* note-section name the hook pointer
// is emitted into.
func (k HookKind) SectionName() string {
	switch k {
	case HookApply:
		return obj.HookSectionPrefix + "apply"
	case HookPreApply:
		return obj.HookSectionPrefix + "pre_apply"
	case HookPostApply:
		return obj.HookSectionPrefix + "post_apply"
	case HookReverse:
		return obj.HookSectionPrefix + "reverse"
	case HookPreReverse:
		return obj.HookSectionPrefix + "pre_reverse"
	case HookPostReverse:
		return obj.HookSectionPrefix + "post_reverse"
	}
	return obj.HookSectionPrefix + "unknown"
}

// HookDecl is a top-level ksplice_apply(f); style declaration.
type HookDecl struct {
	Kind HookKind
	Func string
	Obj  *Object // resolved function
	Pos  Pos
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Block is { ... }.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// If is if (Cond) Then else Else.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  Pos
}

// While is while (Cond) Body.
type While struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// For is for (Init; Cond; Post) Body. Init/Post/Cond may be nil.
type For struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body Stmt
	Pos  Pos
}

// Return is return Expr; (Expr nil for void).
type Return struct {
	Expr Expr
	Pos  Pos
}

// Break is break;.
type Break struct{ Pos Pos }

// Continue is continue;.
type Continue struct{ Pos Pos }

// ExprStmt is Expr;.
type ExprStmt struct {
	Expr Expr
	Pos  Pos
}

// DeclStmt is a local variable declaration.
type DeclStmt struct {
	Decl *VarDecl
	Pos  Pos
}

// AsmStmt is asm("text");. The text is assembled by the code generator
// with the mini assembler.
type AsmStmt struct {
	Text string
	Pos  Pos
}

func (*Block) stmt()    {}
func (*If) stmt()       {}
func (*While) stmt()    {}
func (*For) stmt()      {}
func (*Return) stmt()   {}
func (*Break) stmt()    {}
func (*Continue) stmt() {}
func (*ExprStmt) stmt() {}
func (*DeclStmt) stmt() {}
func (*AsmStmt) stmt()  {}

// Expr is an expression node. The checker fills T with the node's type.
type Expr interface {
	expr()
	Type() *Type
	Position() Pos
}

type exprBase struct {
	T   *Type
	Pos Pos
}

func (e *exprBase) expr()         {}
func (e *exprBase) Type() *Type   { return e.T }
func (e *exprBase) Position() Pos { return e.Pos }

// NumLit is an integer or character literal.
type NumLit struct {
	exprBase
	Val int64
}

// StrLit is a string literal; its type is char*.
type StrLit struct {
	exprBase
	Val string
}

// Ident is a name use, resolved to Obj by the checker.
type Ident struct {
	exprBase
	Name string
	Obj  *Object
}

// UnOp enumerates unary operators.
type UnOp int

const (
	UNeg UnOp = iota
	UNot
	UBitNot
	UDeref
	UAddr
	UPreInc
	UPreDec
	UPostInc
	UPostDec
	// USizeof is sizeof(expr); the checker folds it into a NumLit.
	USizeof
)

// Unary is a unary operation.
type Unary struct {
	exprBase
	Op UnOp
	X  Expr
}

// BinOp enumerates binary operators.
type BinOp int

const (
	BAdd BinOp = iota
	BSub
	BMul
	BDiv
	BMod
	BAnd
	BOr
	BXor
	BShl
	BShr
	BEq
	BNe
	BLt
	BLe
	BGt
	BGe
	BLogAnd
	BLogOr
)

// Binary is a binary operation. For pointer arithmetic, Scale is the
// pointee size applied to the integer operand.
type Binary struct {
	exprBase
	Op   BinOp
	X, Y Expr
	// Scale is the multiplier applied to Y (BAdd/BSub on pointers).
	Scale int
}

// AssignOp enumerates assignment forms.
type AssignOp int

const (
	AsnPlain AssignOp = iota
	AsnAdd
	AsnSub
	AsnMul
	AsnDiv
)

// Assign is LHS op= RHS. Scale is the pointee size for pointer += int.
type Assign struct {
	exprBase
	Op       AssignOp
	LHS, RHS Expr
	Scale    int
}

// Cond is C ? T : F.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// Call is a function call. Direct calls have Callee as an Ident bound to
// an ObjFunc; anything else is an indirect call through a pointer value.
type Call struct {
	exprBase
	Callee Expr
	Args   []Expr
}

// Direct returns the called function for a direct call, or nil.
func (c *Call) Direct() *FuncDecl {
	if id, ok := c.Callee.(*Ident); ok && id.Obj != nil && id.Obj.Kind == ObjFunc {
		return id.Obj.Func
	}
	return nil
}

// Index is X[I]; the checker rewrites it to pointer arithmetic semantics
// but keeps the node for address generation.
type Index struct {
	exprBase
	X, I  Expr
	Scale int // element size
}

// Member is X.Name or X->Name.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Field *Field
}

// SizeofType is sizeof(type-name); the checker folds it once struct
// layouts are known.
type SizeofType struct {
	exprBase
	Arg *Type
}

// Cast is (T)X; also inserted implicitly by the checker for arithmetic
// and assignment conversions. Implicit conversions are real AST nodes so
// the code generator emits genuine width-conversion instructions — the
// mechanism by which a header prototype change alters callers' object
// code (paper section 3.1).
type Cast struct {
	exprBase
	X        Expr
	Implicit bool
}
