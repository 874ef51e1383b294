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
//	mnemonic operands        ; as isa.ParseInsn reads them
//	.global name             ; mark a symbol global (.mcs files)
//	.func name / .endfunc    ; delimit a function symbol (.mcs files)
//	.align N
//
// Instructions are isa.ParseInsn's syntax, with two names the assembler
// resolves: a branch (jmp, jcc, call) takes a label or symbol as its
// target, and "movi rd, #symbol" loads a symbol's absolute address.

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

// assembleInto assembles the statements of one function into b. The
// labels they define are local: each is renamed with prefix, and a
// branch to one resolves to it rather than to a symbol.
func assembleInto(b *Builder, stmts []string, prefix string, pos minic.Pos) error {
	local := map[string]string{}
	for _, s := range stmts {
		if name, ok := strings.CutSuffix(s, ":"); ok {
			name = strings.TrimSpace(name)
			local[name] = prefix + name
		}
	}
	for _, s := range stmts {
		if err := assembleStmt(b, s, pos, local); err != nil {
			return err
		}
	}
	return nil
}

func assembleStmt(b *Builder, s string, pos minic.Pos, local map[string]string) error {
	fail := func(msg string, args ...any) error {
		return &asmError{pos: pos, line: s, msg: fmt.Sprintf(msg, args...)}
	}

	if name, ok := strings.CutSuffix(s, ":"); ok {
		b.Label(local[strings.TrimSpace(name)])
		return nil
	}

	mn, rest := s, ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	mn = strings.ToLower(mn)
	if mn == ".align" {
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil || n == 0 {
			return fail("bad alignment")
		}
		b.Align(uint32(n))
		return nil
	}
	op, ok := isa.LookupOp(mn)
	if !ok {
		return fail("unknown mnemonic %q", mn)
	}

	// A branch target or a #symbol immediate names an address that the
	// builder or the linker fills in: parse the statement with 0 there.
	head, last := "", rest
	if i := strings.LastIndexByte(rest, ','); i >= 0 {
		head, last = rest[:i+1], strings.TrimSpace(rest[i+1:])
	}
	name, isSym := strings.CutPrefix(last, "#")
	branch := op.Branch()
	if branch != isa.BranchNone {
		name, isSym = last, true
	}
	if isSym {
		if name == "" {
			return fail("missing target")
		}
		last = "0"
	}
	in, err := isa.ParseInsn(mn + " " + head + last)
	if err != nil {
		return fail("%v", err)
	}
	if label, ok := local[name]; ok && branch != isa.BranchNone {
		name = label
	}
	switch {
	case branch == isa.BranchJmp:
		b.Jmp(name)
	case branch == isa.BranchJcc:
		b.Jcc(in.CC, name)
	case branch == isa.BranchCall:
		b.Call(name)
	case !isSym:
		b.Emit(in)
	case op == isa.OpMOVI:
		b.MoviSym(in.Rd, name)
	default:
		return fail("only movi takes a #symbol")
	}
	return nil
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
		return assembleInto(b, fn.stmts, ".L"+fn.name+".", minic.Pos{File: path})
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
