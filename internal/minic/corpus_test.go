package minic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/minic"
)

// corpusTokenDigest pins the token stream of every MiniC unit of every
// corpus release: any lexer change that alters a Kind, Text, Val or Pos
// anywhere in the kernels changes this digest.
const corpusTokenDigest = "94d57b6a76a582cda9947c9088bf399469aef08e611416638dfbb73b3dbf819f"

// mcUnits returns the MiniC compilation units of a release tree (the
// .mcs assembly units have their own scanner).
func mcUnits(version string) (minic.FileProvider, []string) {
	tree := cvedb.Tree(version)
	var units []string
	for _, u := range tree.Units() {
		if strings.HasSuffix(u, ".mc") {
			units = append(units, u)
		}
	}
	return tree.Provider(), units
}

func TestCorpusTokenStreamDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putStr := func(s string) {
		putInt(int64(len(s)))
		h.Write([]byte(s))
	}
	ntoks := 0
	for _, version := range cvedb.Versions {
		provider, units := mcUnits(version)
		for _, u := range units {
			toks, err := minic.LexAll(u, provider)
			if err != nil {
				t.Fatalf("%s %s: %v", version, u, err)
			}
			putStr(version + ":" + u)
			putInt(int64(len(toks)))
			for _, tok := range toks {
				putInt(int64(tok.Kind))
				putStr(tok.Text)
				putInt(tok.Val)
				putStr(tok.Pos.File)
				putInt(int64(tok.Pos.Line))
			}
			ntoks += len(toks)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusTokenDigest {
		t.Errorf("token stream of %d tokens over %d releases: digest %s, want %s",
			ntoks, len(cvedb.Versions), got, corpusTokenDigest)
	}
}

// maxReleaseLexAllocs bounds the heap allocations of lexing every MiniC
// unit of one release (73 units, about 16k tokens) the way Parse does,
// one token at a time. The lexer allocates per unit and per include,
// never per token; a per-token allocation would cost tens of thousands
// here.
const maxReleaseLexAllocs = 700

func TestLexAllocsPerRelease(t *testing.T) {
	provider, units := mcUnits("sim-2.6.9-deb")
	var lexErr error
	allocs := testing.AllocsPerRun(5, func() {
		for _, u := range units {
			l, err := minic.NewLexer(u, provider)
			for err == nil {
				var tok minic.Token
				if tok, err = l.Next(); tok.Kind == minic.EOF {
					break
				}
			}
			if err != nil {
				lexErr = err
			}
		}
	})
	if lexErr != nil {
		t.Fatal(lexErr)
	}
	t.Logf("lexing the %d units of sim-2.6.9-deb: %.0f allocs", len(units), allocs)
	if allocs > maxReleaseLexAllocs {
		t.Errorf("lexing the %d units of sim-2.6.9-deb: %.0f allocs, want at most %d",
			len(units), allocs, maxReleaseLexAllocs)
	}
}
