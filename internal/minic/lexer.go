package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// FileProvider resolves #include paths to file contents. The source tree
// passes its in-memory file map here.
type FileProvider func(path string) (string, bool)

// Lexer turns MiniC source into tokens, handling the minimal preprocessor:
// #include "path" (textual inclusion via the FileProvider) and object-like
// #define NAME tokens... (substituted on identifier match, one level).
type Lexer struct {
	provider FileProvider
	defines  map[string][]Token

	// include stack
	stack []*lexFile
	// pending tokens from macro expansion
	pending []Token

	err error
}

type lexFile struct {
	path string
	src  string
	off  int
	line int
	// conds is the #ifdef/#ifndef nesting state of this file. Every
	// frame must be closed by #endif before the file ends.
	conds []condFrame
}

// condFrame is one conditional-inclusion level.
type condFrame struct {
	// active: this branch's tokens are emitted (parent activity already
	// folded in).
	active bool
	// taken: some branch of this #if chain has been active.
	taken bool
	// seenElse guards against duplicate #else.
	seenElse bool
}

// suppressed reports whether the current file position is inside an
// inactive conditional branch.
func (f *lexFile) suppressed() bool {
	for _, c := range f.conds {
		if !c.active {
			return true
		}
	}
	return false
}

// NewLexer prepares to lex the file at path, whose content (and that of
// any file it includes) is obtained from provider.
func NewLexer(path string, provider FileProvider) (*Lexer, error) {
	l := &Lexer{provider: provider, defines: make(map[string][]Token)}
	if err := l.pushFile(path); err != nil {
		return nil, err
	}
	return l, nil
}

const maxIncludeDepth = 32

func (l *Lexer) pushFile(path string) error {
	if len(l.stack) >= maxIncludeDepth {
		return fmt.Errorf("minic: #include nesting deeper than %d at %s", maxIncludeDepth, path)
	}
	src, ok := l.provider(path)
	if !ok {
		return fmt.Errorf("minic: cannot open %q", path)
	}
	l.stack = append(l.stack, &lexFile{path: path, src: src, line: 1})
	return nil
}

func (l *Lexer) cur() *lexFile {
	if len(l.stack) == 0 {
		return nil
	}
	return l.stack[len(l.stack)-1]
}

func (l *Lexer) pos() Pos {
	if f := l.cur(); f != nil {
		return Pos{File: f.path, Line: f.line}
	}
	return Pos{}
}

// Next returns the next token after preprocessing and macro substitution.
func (l *Lexer) Next() (Token, error) {
	for {
		if len(l.pending) > 0 {
			t := l.pending[0]
			l.pending = l.pending[1:]
			return t, nil
		}
		t, err := l.rawNext()
		if err != nil {
			return Token{}, err
		}
		if t.Kind == IDENT {
			if repl, ok := l.defines[t.Text]; ok {
				// Substitute at the macro use site, preserving position.
				sub := make([]Token, len(repl))
				for i, r := range repl {
					r.Pos = t.Pos
					sub[i] = r
				}
				l.pending = append(sub, l.pending...)
				continue
			}
		}
		return t, nil
	}
}

// rawNext produces the next token from the include stack, processing
// directives but not macro substitution.
func (l *Lexer) rawNext() (Token, error) {
	for {
		f := l.cur()
		if f == nil {
			return Token{Kind: EOF}, nil
		}
		l.skipSpaceAndComments(f)
		if f.off >= len(f.src) {
			if len(f.conds) > 0 {
				return Token{}, fmt.Errorf("minic: %s: unterminated #ifdef/#ifndef", f.path)
			}
			l.stack = l.stack[:len(l.stack)-1]
			continue
		}
		c := f.src[f.off]
		if c == '#' && l.atLineStart(f) {
			if err := l.directive(f); err != nil {
				return Token{}, err
			}
			continue
		}
		if f.suppressed() {
			// Inside an inactive branch: skip this line without
			// tokenizing it (it may be code for another configuration).
			if nl := strings.IndexByte(f.src[f.off:], '\n'); nl >= 0 {
				f.off += nl
			} else {
				f.off = len(f.src)
			}
			continue
		}
		return l.scanToken(f)
	}
}

func (l *Lexer) atLineStart(f *lexFile) bool {
	for i := f.off - 1; i >= 0; i-- {
		switch f.src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

func (l *Lexer) skipSpaceAndComments(f *lexFile) {
	for f.off < len(f.src) {
		c := f.src[f.off]
		switch {
		case c == '\n':
			f.line++
			f.off++
		case c == ' ' || c == '\t' || c == '\r':
			f.off++
		case c == '/' && f.off+1 < len(f.src) && f.src[f.off+1] == '/':
			for f.off < len(f.src) && f.src[f.off] != '\n' {
				f.off++
			}
		case c == '/' && f.off+1 < len(f.src) && f.src[f.off+1] == '*':
			f.off += 2
			for f.off+1 < len(f.src) && !(f.src[f.off] == '*' && f.src[f.off+1] == '/') {
				if f.src[f.off] == '\n' {
					f.line++
				}
				f.off++
			}
			f.off += 2
			if f.off > len(f.src) {
				f.off = len(f.src)
			}
		default:
			return
		}
	}
}

// directive handles one # line: #include "path" or #define NAME tokens.
func (l *Lexer) directive(f *lexFile) error {
	start := f.off
	end := strings.IndexByte(f.src[start:], '\n')
	var lineText string
	if end < 0 {
		lineText = f.src[start:]
		f.off = len(f.src)
	} else {
		lineText = f.src[start : start+end]
		f.off = start + end // leave the newline for skipSpace to count
	}
	pos := Pos{File: f.path, Line: f.line}

	rest := strings.TrimSpace(strings.TrimPrefix(lineText, "#"))

	// Conditional-inclusion directives are interpreted even inside
	// inactive branches (they nest); everything else is skipped there.
	word := rest
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		word = rest[:sp]
	}
	switch word {
	case "ifdef", "ifndef":
		name := strings.TrimSpace(strings.TrimPrefix(rest, word))
		if !isIdent(name) {
			return fmt.Errorf("%s: malformed #%s %q", pos, word, lineText)
		}
		_, defined := l.defines[name]
		want := defined
		if word == "ifndef" {
			want = !defined
		}
		active := want && !f.suppressed()
		f.conds = append(f.conds, condFrame{active: active, taken: active})
		return nil
	case "else":
		if len(f.conds) == 0 {
			return fmt.Errorf("%s: #else without #ifdef", pos)
		}
		top := &f.conds[len(f.conds)-1]
		if top.seenElse {
			return fmt.Errorf("%s: duplicate #else", pos)
		}
		top.seenElse = true
		parentActive := true
		for _, c := range f.conds[:len(f.conds)-1] {
			if !c.active {
				parentActive = false
			}
		}
		top.active = parentActive && !top.taken
		if top.active {
			top.taken = true
		}
		return nil
	case "endif":
		if len(f.conds) == 0 {
			return fmt.Errorf("%s: #endif without #ifdef", pos)
		}
		f.conds = f.conds[:len(f.conds)-1]
		return nil
	}
	if f.suppressed() {
		return nil // other directives are inert in inactive branches
	}

	switch {
	case strings.HasPrefix(rest, "include"):
		arg := strings.TrimSpace(rest[len("include"):])
		if len(arg) < 2 || arg[0] != '"' || arg[len(arg)-1] != '"' {
			return fmt.Errorf("%s: malformed #include %q", pos, lineText)
		}
		return l.pushFile(arg[1 : len(arg)-1])
	case strings.HasPrefix(rest, "define"):
		body := strings.TrimSpace(rest[len("define"):])
		sp := strings.IndexAny(body, " \t")
		name := body
		var repl string
		if sp >= 0 {
			name, repl = body[:sp], strings.TrimSpace(body[sp:])
		}
		if !isIdent(name) {
			return fmt.Errorf("%s: malformed #define %q", pos, lineText)
		}
		toks, err := lexString(repl, pos)
		if err != nil {
			return err
		}
		l.defines[name] = toks
		return nil
	case strings.HasPrefix(rest, "undef"):
		name := strings.TrimSpace(rest[len("undef"):])
		delete(l.defines, name)
		return nil
	default:
		return fmt.Errorf("%s: unsupported directive %q", pos, lineText)
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lexString tokenizes a macro replacement list.
func lexString(s string, pos Pos) ([]Token, error) {
	lf := &lexFile{path: pos.File, src: s, line: pos.Line}
	l := &Lexer{defines: map[string][]Token{}}
	l.stack = []*lexFile{lf}
	var out []Token
	for {
		l.skipSpaceAndComments(lf)
		if lf.off >= len(lf.src) {
			return out, nil
		}
		t, err := l.scanToken(lf)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

func (l *Lexer) scanToken(f *lexFile) (Token, error) {
	pos := Pos{File: f.path, Line: f.line}
	c := f.src[f.off]
	switch {
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		start := f.off
		for f.off < len(f.src) && isIdentByte(f.src[f.off]) {
			f.off++
		}
		word := f.src[start:f.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Text: word, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: word, Pos: pos}, nil

	case c >= '0' && c <= '9':
		start := f.off
		for f.off < len(f.src) && (isIdentByte(f.src[f.off])) {
			f.off++
		}
		text := f.src[start:f.off]
		// Strip C suffixes (U, L, UL...) that our synthetic sources use.
		trimmed := strings.TrimRight(text, "uUlL")
		v, err := strconv.ParseUint(trimmed, 0, 64)
		if err != nil {
			return Token{}, fmt.Errorf("%s: bad number %q", pos, text)
		}
		return Token{Kind: NUMBER, Val: int64(v), Pos: pos}, nil

	case c == '"':
		f.off++
		var sb strings.Builder
		for {
			if f.off >= len(f.src) || f.src[f.off] == '\n' {
				return Token{}, fmt.Errorf("%s: unterminated string", pos)
			}
			ch := f.src[f.off]
			if ch == '"' {
				f.off++
				return Token{Kind: STRING, Text: sb.String(), Pos: pos}, nil
			}
			if ch == '\\' {
				r, n, err := unescape(f.src[f.off:], pos)
				if err != nil {
					return Token{}, err
				}
				sb.WriteByte(r)
				f.off += n
				continue
			}
			sb.WriteByte(ch)
			f.off++
		}

	case c == '\'':
		f.off++
		if f.off >= len(f.src) {
			return Token{}, fmt.Errorf("%s: unterminated char literal", pos)
		}
		var v byte
		if f.src[f.off] == '\\' {
			r, n, err := unescape(f.src[f.off:], pos)
			if err != nil {
				return Token{}, err
			}
			v = r
			f.off += n
		} else {
			v = f.src[f.off]
			f.off++
		}
		if f.off >= len(f.src) || f.src[f.off] != '\'' {
			return Token{}, fmt.Errorf("%s: unterminated char literal", pos)
		}
		f.off++
		return Token{Kind: CHARLIT, Val: int64(v), Pos: pos}, nil
	}

	// Punctuation: longest match first.
	if f.off+1 < len(f.src) {
		if k := punct2(f.src[f.off : f.off+2]); k != EOF {
			f.off += 2
			return Token{Kind: k, Pos: pos}, nil
		}
	}
	if k := punct1[c]; k != EOF {
		f.off++
		return Token{Kind: k, Pos: pos}, nil
	}
	return Token{}, fmt.Errorf("%s: unexpected character %q", pos, rune(c))
}

// punct2 returns the two-byte operator s, or EOF (which no operator
// is) when s is none.
func punct2(s string) Kind {
	switch s {
	case "->":
		return Arrow
	case "==":
		return Eq
	case "!=":
		return Ne
	case "<=":
		return Le
	case ">=":
		return Ge
	case "<<":
		return Shl
	case ">>":
		return Shr
	case "&&":
		return AndAnd
	case "||":
		return OrOr
	case "++":
		return Inc
	case "--":
		return Dec
	case "+=":
		return PlusAssign
	case "-=":
		return MinusAssign
	case "*=":
		return StarAssign
	case "/=":
		return SlashAssign
	}
	return EOF
}

// punct1 maps each one-byte punctuator to its kind; every other byte
// maps to EOF, which no punctuator is.
var punct1 = [256]Kind{
	'(': LParen, ')': RParen, '{': LBrace, '}': RBrace,
	'[': LBracket, ']': RBracket, ';': Semi, ',': Comma, '.': Dot,
	'?': Question, ':': Colon, '=': AssignEq, '+': Plus, '-': Minus,
	'*': Star, '/': Slash, '%': Percent, '&': Amp, '|': Pipe,
	'^': Caret, '~': Tilde, '!': Not, '<': Lt, '>': Gt,
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// unescape decodes one backslash escape starting at s[0]=='\\', returning
// the byte value and consumed length.
func unescape(s string, pos Pos) (byte, int, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("%s: truncated escape", pos)
	}
	switch s[1] {
	case 'n':
		return '\n', 2, nil
	case 't':
		return '\t', 2, nil
	case 'r':
		return '\r', 2, nil
	case '0':
		return 0, 2, nil
	case '\\':
		return '\\', 2, nil
	case '\'':
		return '\'', 2, nil
	case '"':
		return '"', 2, nil
	case 'x':
		if len(s) < 4 {
			return 0, 0, fmt.Errorf("%s: truncated hex escape", pos)
		}
		v, err := strconv.ParseUint(s[2:4], 16, 8)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: bad hex escape", pos)
		}
		return byte(v), 4, nil
	}
	return 0, 0, fmt.Errorf("%s: unknown escape \\%c", pos, s[1])
}
