package codegen

import (
	"fmt"
	"slices"
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

// asmStmt is one assembly statement and where it was written.
type asmStmt struct {
	text string
	pos  minic.Pos
}

// splitStmts breaks assembly text into statements on newlines and
// semicolons, trimming comments (everything after //). pos is where the
// text starts; each newline moves the statements after it one line on.
func splitStmts(text string, pos minic.Pos) []asmStmt {
	var out []asmStmt
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		for _, s := range strings.Split(line, ";") {
			if i := strings.Index(s, "//"); i >= 0 {
				s = s[:i]
			}
			if s = strings.TrimSpace(s); s != "" {
				out = append(out, asmStmt{text: s, pos: pos})
			}
		}
		pos.Line++
	}
	return out
}

// assembleInto assembles the statements of one function into b. The
// labels they define are local: each is renamed with prefix, and a
// branch to one resolves to it rather than to a symbol.
func assembleInto(b *Builder, stmts []asmStmt, prefix string) error {
	local := map[string]string{}
	for _, s := range stmts {
		if name, ok := strings.CutSuffix(s.text, ":"); ok {
			name = strings.TrimSpace(name)
			local[name] = prefix + name
		}
	}
	for _, s := range stmts {
		if err := assembleStmt(b, s.text, s.pos, local); err != nil {
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
// global (default is file-local, like C static) and must name a function
// the file defines.
func AssembleFile(path, src string, opts Options) (*obj.File, error) {
	// fnSpan is a function (.func to .endfunc), global a .global name;
	// each remembers the line that named it.
	type fnSpan struct {
		name  string
		pos   minic.Pos
		stmts []asmStmt
	}
	type global struct {
		name string
		pos  minic.Pos
	}
	var fns []*fnSpan
	var cur *fnSpan
	var globals []global // in source order
	for _, s := range splitStmts(src, minic.Pos{File: path, Line: 1}) {
		fields := strings.Fields(s.text)
		switch {
		case len(fields) == 2 && fields[0] == ".global":
			globals = append(globals, global{name: fields[1], pos: s.pos})
		case len(fields) == 2 && fields[0] == ".func":
			if cur != nil {
				return nil, fmt.Errorf("%s: nested .func %s", s.pos, fields[1])
			}
			cur = &fnSpan{name: fields[1], pos: s.pos}
		case len(fields) == 1 && fields[0] == ".endfunc":
			if cur == nil {
				return nil, fmt.Errorf("%s: .endfunc outside .func", s.pos)
			}
			fns = append(fns, cur)
			cur = nil
		default:
			if cur == nil {
				return nil, fmt.Errorf("%s: statement %q outside .func", s.pos, s.text)
			}
			cur.stmts = append(cur.stmts, s)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: unterminated .func %s", cur.pos, cur.name)
	}
	for _, g := range globals {
		if !slices.ContainsFunc(fns, func(fn *fnSpan) bool { return fn.name == g.name }) {
			return nil, &asmError{pos: g.pos, line: ".global " + g.name, msg: "no .func defines " + g.name}
		}
	}

	w := newObjWriter(path, opts)
	err := emitText(w, fns,
		func(fn *fnSpan) (string, bool) {
			return fn.name, !slices.ContainsFunc(globals, func(g global) bool { return g.name == fn.name })
		},
		func(b *Builder, fn *fnSpan) error {
			return assembleInto(b, fn.stmts, ".L"+fn.name+".")
		})
	if err != nil {
		return nil, err
	}
	return w.finish()
}
