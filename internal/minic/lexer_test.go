package minic

import (
	"slices"
	"testing"
)

// LexAll tokenizes the whole translation unit, directives resolved, and
// appends an EOF token. Parse pulls tokens from a Lexer one at a time;
// the tests read the stream as a slice.
func LexAll(path string, provider FileProvider) ([]Token, error) {
	l, err := NewLexer(path, provider)
	if err != nil {
		return nil, err
	}
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func lexKinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := LexAll("t.mc", func(string) (string, bool) { return src, true })
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return kindsOf(toks)
}

// TestLexEveryKind lexes each token kind on its own: keywords and
// punctuation from their kindNames spelling, the literal classes from a
// sample. Each must come back as exactly that kind, then EOF.
func TestLexEveryKind(t *testing.T) {
	samples := map[Kind]string{
		IDENT: "foo_1", NUMBER: "0x1fUL", STRING: `"s\n"`, CHARLIT: `'\x41'`,
	}
	for k, name := range kindNames {
		if k == EOF {
			if got := lexKinds(t, ""); !slices.Equal(got, []Kind{EOF}) {
				t.Errorf("empty source: %v, want [end of file]", got)
			}
			continue
		}
		src, ok := samples[k]
		if !ok {
			src = name
		}
		if got := lexKinds(t, src); !slices.Equal(got, []Kind{k, EOF}) {
			t.Errorf("%q: %v, want [%v end of file]", src, got, k)
		}
	}
}

// TestLexLongestMatch pins the operator splits where a one-byte and a
// two-byte reading compete: the lexer takes the longest operator at
// each position and never looks further back.
func TestLexLongestMatch(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []Kind
	}{
		{"<<=", []Kind{Shl, AssignEq}},
		{">>=", []Kind{Shr, AssignEq}},
		{"a--b", []Kind{IDENT, Dec, IDENT}},
		{"a---b", []Kind{IDENT, Dec, Minus, IDENT}},
		{"a- -b", []Kind{IDENT, Minus, Minus, IDENT}},
		{"p->q", []Kind{IDENT, Arrow, IDENT}},
		{"p- >q", []Kind{IDENT, Minus, Gt, IDENT}},
		{"a+++b", []Kind{IDENT, Inc, Plus, IDENT}},
		{"a&&&b", []Kind{IDENT, AndAnd, Amp, IDENT}},
		{"a|||b", []Kind{IDENT, OrOr, Pipe, IDENT}},
		{"a!==b", []Kind{IDENT, Ne, AssignEq, IDENT}},
		{"a===b", []Kind{IDENT, Eq, AssignEq, IDENT}},
		{"a=>b", []Kind{IDENT, AssignEq, Gt, IDENT}},
		{"a<-b", []Kind{IDENT, Lt, Minus, IDENT}},
		{"a*=*b", []Kind{IDENT, StarAssign, Star, IDENT}},
		{"a/ =b", []Kind{IDENT, Slash, AssignEq, IDENT}},
		{"a/=b", []Kind{IDENT, SlashAssign, IDENT}},
		// A one-byte operator as the last byte of the file.
		{"x+", []Kind{IDENT, Plus}},
		{"x-", []Kind{IDENT, Minus}},
		{"x<", []Kind{IDENT, Lt}},
		{"x=", []Kind{IDENT, AssignEq}},
		{"}", []Kind{RBrace}},
		// And a two-byte one.
		{"x--", []Kind{IDENT, Dec}},
	} {
		want := append(c.want, EOF)
		if got := lexKinds(t, c.src); !slices.Equal(got, want) {
			t.Errorf("%q: %v, want %v", c.src, got, want)
		}
	}
}

func TestLexRejectsUnknownPunctuation(t *testing.T) {
	for _, src := range []string{"@", "a $ b", "`"} {
		_, err := LexAll("t.mc", func(string) (string, bool) { return src, true })
		if err == nil {
			t.Errorf("%q: lexed without error", src)
		}
	}
}
