package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"gosplice/internal/isa"
	"gosplice/internal/minic"
	"gosplice/internal/obj"
)

// The mini assembler: textual SIM32 assembly used both by asm("...")
// statements inside MiniC functions and by whole assembly source files
// (.mcs), the analogue of the kernel's .S files (the CVE-2007-4573 patch
// modifies one; Ksplice handles it with the same machinery as C).
//
// Syntax, one statement per line or semicolon:
//
//	label:
//	mnemonic operands        ; registers r0-r5, fp, sp
//	.global name             ; mark a symbol global (.mcs files)
//	.func name / .endfunc    ; delimit a function symbol (.mcs files)
//	.align N
//
// Operand forms: registers, immediates (decimal/hex, 'c'), memory
// [reg+disp], #symbol for absolute address immediates, and label/symbol
// branch targets.

var regNames = map[string]isa.Reg{
	"r0": isa.R0, "r1": isa.R1, "r2": isa.R2, "r3": isa.R3,
	"r4": isa.R4, "r5": isa.R5, "fp": isa.FP, "sp": isa.SP,
}

var ccByName = map[string]isa.CC{
	"eq": isa.CCEQ, "ne": isa.CCNE, "lt": isa.CCLT, "le": isa.CCLE,
	"gt": isa.CCGT, "ge": isa.CCGE, "ult": isa.CCULT, "ule": isa.CCULE,
	"ugt": isa.CCUGT, "uge": isa.CCUGE,
}

var aluByName = map[string]isa.Op{
	"add32": isa.OpADD32, "sub32": isa.OpSUB32, "mul32": isa.OpMUL32,
	"div32s": isa.OpDIV32S, "div32u": isa.OpDIV32U,
	"mod32s": isa.OpMOD32S, "mod32u": isa.OpMOD32U,
	"and32": isa.OpAND32, "or32": isa.OpOR32, "xor32": isa.OpXOR32,
	"shl32": isa.OpSHL32, "shr32": isa.OpSHR32, "sar32": isa.OpSAR32,
	"add64": isa.OpADD64, "sub64": isa.OpSUB64, "mul64": isa.OpMUL64,
	"div64s": isa.OpDIV64S, "div64u": isa.OpDIV64U,
	"mod64s": isa.OpMOD64S, "mod64u": isa.OpMOD64U,
	"and64": isa.OpAND64, "or64": isa.OpOR64, "xor64": isa.OpXOR64,
	"shl64": isa.OpSHL64, "shr64": isa.OpSHR64, "sar64": isa.OpSAR64,
}

var alu1ByName = map[string]isa.Op{
	"neg32": isa.OpNEG32, "not32": isa.OpNOT32, "zext32": isa.OpZEXT32,
	"neg64": isa.OpNEG64, "not64": isa.OpNOT64,
	"sext8": isa.OpSEXT8, "sext16": isa.OpSEXT16, "sext32": isa.OpSEXT32,
	"zext8": isa.OpZEXT8, "zext16": isa.OpZEXT16,
}

var loadByName = map[string]isa.Op{
	"ld8u": isa.OpLD8U, "ld8s": isa.OpLD8S, "ld16u": isa.OpLD16U,
	"ld16s": isa.OpLD16S, "ld32u": isa.OpLD32U, "ld32s": isa.OpLD32S,
	"ld64": isa.OpLD64,
}

var storeByName = map[string]isa.Op{
	"st8": isa.OpST8, "st16": isa.OpST16, "st32": isa.OpST32, "st64": isa.OpST64,
}

// arity is the operand count of each mnemonic outside the tables above;
// nop, ret, hlt and brk take none and ignore any they are given.
var arity = map[string]int{
	".align": 1, "jmp": 1, "call": 1, "callr": 1, "jmpr": 1, "push": 1, "pop": 1, "trap": 1,
	"movi": 2, "movi64": 2, "mov": 2, "lea": 2, "addi64": 2,
	"cmpi32": 2, "cmpi64": 2, "cmp32": 2, "cmp64": 2, "setcc": 2, "jcc": 2,
}

// operands returns the operand count of mnemonic mn, and false for a
// mnemonic whose operands are not counted.
func operands(mn string) (int, bool) {
	if n, ok := arity[mn]; ok {
		return n, true
	}
	if _, ok := alu1ByName[mn]; ok {
		return 1, true
	}
	_, ld := loadByName[mn]
	_, st := storeByName[mn]
	_, alu := aluByName[mn]
	return 2, ld || st || alu
}

type asmError struct {
	pos  minic.Pos
	line string
	msg  string
}

func (e *asmError) Error() string {
	return fmt.Sprintf("%s: asm %q: %s", e.pos, e.line, e.msg)
}

// splitStmts breaks assembly text into statements on newlines and
// semicolons, trimming comments (everything after //).
func splitStmts(text string) []string {
	var out []string
	for _, line := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' }) {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			out = append(out, line)
		}
	}
	return out
}

// assembleInto assembles asm() statement text into b. Labels defined in
// the text are scoped with the enclosing function's name; other branch
// targets are treated as symbols.
func assembleInto(b *Builder, text, scope string, pos minic.Pos) error {
	stmts := splitStmts(text)
	// Pre-scan local labels so forward references resolve as labels, not
	// symbols.
	local := map[string]bool{}
	for _, s := range stmts {
		if name, ok := strings.CutSuffix(s, ":"); ok {
			local[strings.TrimSpace(name)] = true
		}
	}
	mangle := func(name string) string { return ".Lasm." + scope + "." + name }
	for _, s := range stmts {
		if err := assembleStmt(b, s, pos, local, mangle); err != nil {
			return err
		}
	}
	return nil
}

func parseReg(tok string) (isa.Reg, bool) {
	r, ok := regNames[strings.TrimSpace(tok)]
	return r, ok
}

func parseImm(tok string) (int64, bool) {
	tok = strings.TrimSpace(tok)
	if len(tok) >= 3 && tok[0] == '\'' && tok[len(tok)-1] == '\'' {
		if len(tok) == 3 {
			return int64(tok[1]), true
		}
		return 0, false
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		u, uerr := strconv.ParseUint(tok, 0, 64)
		if uerr != nil {
			return 0, false
		}
		return int64(u), true
	}
	return v, true
}

// parseMem parses "[reg+disp]" or "[reg-disp]" or "[reg]".
func parseMem(tok string) (isa.Reg, int32, bool) {
	tok = strings.TrimSpace(tok)
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, false
	}
	inner := tok[1 : len(tok)-1]
	sep := strings.IndexAny(inner, "+-")
	if sep < 0 {
		r, ok := parseReg(inner)
		return r, 0, ok
	}
	r, ok := parseReg(inner[:sep])
	if !ok {
		return 0, 0, false
	}
	d, ok := parseImm(inner[sep:])
	if !ok {
		return 0, 0, false
	}
	return r, int32(d), true
}

func assembleStmt(b *Builder, s string, pos minic.Pos, local map[string]bool, mangle func(string) string) error {
	fail := func(msg string, args ...any) error {
		return &asmError{pos: pos, line: s, msg: fmt.Sprintf(msg, args...)}
	}

	if name, ok := strings.CutSuffix(s, ":"); ok {
		b.Label(mangle(strings.TrimSpace(name)))
		return nil
	}

	mn := s
	rest := ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	mn = strings.ToLower(mn)
	args := splitOperands(rest)
	if n, ok := operands(mn); ok && len(args) != n {
		return fail("need %d operand(s), got %d", n, len(args))
	}

	target := func(name string) string {
		name = strings.TrimSpace(name)
		if local[name] {
			return mangle(name)
		}
		return name // external symbol (or function-level label)
	}

	switch mn {
	case "nop":
		b.Raw(isa.Nop(nil, 1))
		return nil
	case ".align":
		n, ok := parseImm(args[0])
		if !ok || n <= 0 {
			return fail("bad alignment")
		}
		b.Align(uint32(n))
		return nil
	case "movi", "movi64":
		rd, ok := parseReg(args[0])
		if !ok {
			return fail("bad register %q", args[0])
		}
		if sym, isSym := strings.CutPrefix(strings.TrimSpace(args[1]), "#"); isSym {
			b.RawReloc(isa.MOVI(nil, rd, 0), 2, obj.RelAbs32, sym, 0)
			return nil
		}
		v, ok := parseImm(args[1])
		if !ok {
			return fail("bad immediate %q", args[1])
		}
		if mn == "movi64" {
			b.Raw(isa.MOVI64(nil, rd, v))
		} else {
			b.Raw(isa.MOVI(nil, rd, int32(v)))
		}
		return nil
	case "mov":
		rd, ok1 := parseReg(args[0])
		rs, ok2 := parseReg(args[1])
		if !ok1 || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.MOV(nil, rd, rs))
		return nil
	case "lea":
		rd, ok := parseReg(args[0])
		rs, disp, ok2 := parseMem(args[1])
		if !ok || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.LEA(nil, rd, rs, disp))
		return nil
	case "addi64":
		rd, ok := parseReg(args[0])
		v, ok2 := parseImm(args[1])
		if !ok || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.ADDI64(nil, rd, int32(v)))
		return nil
	case "cmpi32", "cmpi64":
		rd, ok := parseReg(args[0])
		v, ok2 := parseImm(args[1])
		if !ok || !ok2 {
			return fail("bad operands")
		}
		op := isa.OpCMPI32
		if mn == "cmpi64" {
			op = isa.OpCMPI64
		}
		b.Raw(isa.CMPI(nil, op, rd, int32(v)))
		return nil
	case "cmp32", "cmp64":
		ra, ok := parseReg(args[0])
		rb, ok2 := parseReg(args[1])
		if !ok || !ok2 {
			return fail("bad operands")
		}
		op := isa.OpCMP32
		if mn == "cmp64" {
			op = isa.OpCMP64
		}
		b.Raw(isa.CMP(nil, op, ra, rb))
		return nil
	case "setcc":
		rd, ok := parseReg(args[0])
		cc, ok2 := ccByName[strings.TrimSpace(args[1])]
		if !ok || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.SETCC(nil, rd, cc))
		return nil
	case "jmp":
		b.Jmp(target(args[0]))
		return nil
	case "jcc":
		cc, ok := ccByName[strings.TrimSpace(args[0])]
		if !ok {
			return fail("bad condition %q", args[0])
		}
		b.Jcc(cc, target(args[1]))
		return nil
	case "call":
		b.Call(target(args[0]))
		return nil
	case "callr", "jmpr", "push", "pop":
		r, ok := parseReg(args[0])
		if !ok {
			return fail("bad register %q", args[0])
		}
		switch mn {
		case "callr":
			b.Raw(isa.CALLR(nil, r))
		case "jmpr":
			b.Raw(isa.JMPR(nil, r))
		case "push":
			b.Raw(isa.PUSH(nil, r))
		case "pop":
			b.Raw(isa.POP(nil, r))
		}
		return nil
	case "ret":
		b.Raw(isa.RET(nil))
		return nil
	case "hlt":
		b.Raw(isa.HLT(nil))
		return nil
	case "brk":
		b.Raw(append([]byte{}, byte(isa.OpBRK)))
		return nil
	case "trap":
		v, ok := parseImm(args[0])
		if !ok || v < 0 || v > 0xffff {
			return fail("bad trap number %q", args[0])
		}
		b.Raw(isa.TRAP(nil, uint16(v)))
		return nil
	}

	if op, ok := loadByName[mn]; ok {
		rd, ok1 := parseReg(args[0])
		rs, disp, ok2 := parseMem(args[1])
		if !ok1 || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.Load(nil, op, rd, rs, disp))
		return nil
	}
	if op, ok := storeByName[mn]; ok {
		rd, disp, ok1 := parseMem(args[0])
		rs, ok2 := parseReg(args[1])
		if !ok1 || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.Store(nil, op, rd, disp, rs))
		return nil
	}
	if op, ok := aluByName[mn]; ok {
		rd, ok1 := parseReg(args[0])
		rs, ok2 := parseReg(args[1])
		if !ok1 || !ok2 {
			return fail("bad operands")
		}
		b.Raw(isa.ALU(nil, op, rd, rs))
		return nil
	}
	if op, ok := alu1ByName[mn]; ok {
		rd, ok1 := parseReg(args[0])
		if !ok1 {
			return fail("bad operands")
		}
		b.Raw(isa.ALU1(nil, op, rd))
		return nil
	}
	return fail("unknown mnemonic %q", mn)
}

// splitOperands splits on commas not inside brackets.
func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// AssembleFile assembles a whole .mcs assembly source file into an object
// file. Functions are delimited with .func/.endfunc; .global marks symbols
// global (default is file-local, like C static).
func AssembleFile(path, src string, opts Options) (*obj.File, error) {
	f := &obj.File{SourcePath: path, Compiler: opts.Version}
	stmts := splitStmts(src)

	globals := map[string]bool{}
	type fnSpan struct {
		name  string
		stmts []string
	}
	var fns []*fnSpan
	var cur *fnSpan
	for _, s := range stmts {
		fields := strings.Fields(s)
		switch {
		case len(fields) == 2 && fields[0] == ".global":
			globals[fields[1]] = true
		case len(fields) == 2 && fields[0] == ".func":
			if cur != nil {
				return nil, fmt.Errorf("%s: nested .func %s", path, fields[1])
			}
			cur = &fnSpan{name: fields[1]}
		case len(fields) == 1 && fields[0] == ".endfunc":
			if cur == nil {
				return nil, fmt.Errorf("%s: .endfunc outside .func", path)
			}
			fns = append(fns, cur)
			cur = nil
		default:
			if cur == nil {
				return nil, fmt.Errorf("%s: statement %q outside .func", path, s)
			}
			cur.stmts = append(cur.stmts, s)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: unterminated .func %s", path, cur.name)
	}

	emit := func(b *Builder, fn *fnSpan) error {
		local := map[string]bool{}
		for _, s := range fn.stmts {
			if name, ok := strings.CutSuffix(s, ":"); ok {
				local[strings.TrimSpace(name)] = true
			}
		}
		mangle := func(name string) string { return ".L" + fn.name + "." + name }
		pos := minic.Pos{File: path}
		for _, s := range fn.stmts {
			if err := assembleStmt(b, s, pos, local, mangle); err != nil {
				return err
			}
		}
		return nil
	}

	// Relocations are resolved only after every function symbol exists,
	// so a later .func can be referenced by an earlier one.
	type pendingSec struct {
		sec  *obj.Section
		refs []relocRef
	}
	var pendings []pendingSec

	finish := func(b *Builder, members []*fnSpan) error {
		sec, exts, err := b.Finalize(obj.Text, 16)
		if err != nil {
			return err
		}
		si := f.AddSection(sec)
		for _, fn := range members {
			ext := exts[fn.name]
			f.Symbols = append(f.Symbols, &obj.Symbol{
				Name: fn.name, Local: !globals[fn.name], Section: si,
				Value: ext[0], Size: ext[1], Func: true,
			})
		}
		pendings = append(pendings, pendingSec{sec: sec, refs: b.PendingRelocs()})
		return nil
	}

	if opts.FunctionSections {
		for _, fn := range fns {
			b := NewBuilder(obj.FuncSectionPrefix+fn.name, false)
			b.BeginSym(fn.name)
			if err := emit(b, fn); err != nil {
				return nil, err
			}
			b.EndSym(fn.name)
			if err := finish(b, []*fnSpan{fn}); err != nil {
				return nil, err
			}
		}
	} else {
		b := NewBuilder(".text", true)
		for _, fn := range fns {
			b.Align(16)
			b.BeginSym(fn.name)
			if err := emit(b, fn); err != nil {
				return nil, err
			}
			b.EndSym(fn.name)
		}
		if err := finish(b, fns); err != nil {
			return nil, err
		}
	}
	for _, p := range pendings {
		for _, r := range p.refs {
			p.sec.Relocs = append(p.sec.Relocs, obj.Reloc{
				Offset: r.off, Type: r.typ, Sym: f.SymbolIndex(r.sym), Addend: r.addend,
			})
		}
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: assembling %s: %w", path, err)
	}
	return f, nil
}
