package obj

import (
	"fmt"
	"math/rand"
	"testing"

	"gosplice/internal/isa"
)

// randomFiles generates structurally valid object files: each defines a
// few functions calling each other across files plus per-file data.
func randomFiles(rng *rand.Rand, nFiles int) []*File {
	var files []*File
	var allGlobals []string
	for fi := 0; fi < nFiles; fi++ {
		f := &File{SourcePath: fmt.Sprintf("f%d.mc", fi), Compiler: "t"}
		nf := 1 + rng.Intn(3)
		for i := 0; i < nf; i++ {
			name := fmt.Sprintf("fn_%d_%d", fi, i)
			sec := &Section{Name: FuncSectionPrefix + name, Kind: Text, Align: 16}
			body := isa.Encode(nil, isa.Insn{Op: isa.OpPUSH, Rd: isa.FP})
			body = isa.Encode(body, isa.Insn{Op: isa.OpMOV, Rd: isa.FP, Rs: isa.SP})
			// Possibly call an earlier global; the reloc's symbol index
			// is fixed up once all of the file's symbols exist.
			if len(allGlobals) > 0 && rng.Intn(2) == 0 {
				callee := allGlobals[rng.Intn(len(allGlobals))]
				off := uint32(len(body)) + 1
				body = isa.Encode(body, isa.Insn{Op: isa.OpCALL})
				sec.Relocs = append(sec.Relocs, Reloc{Offset: off, Type: RelPC32, Sym: 0, Addend: -4})
				pendingCalls = append(pendingCalls, pendingCall{f, len(f.Sections), len(sec.Relocs) - 1, callee})
			}
			body = isa.Encode(body, isa.Insn{Op: isa.OpPOP, Rd: isa.FP})
			body = isa.Encode(body, isa.Insn{Op: isa.OpRET})
			sec.Data = body
			si := f.AddSection(sec)
			f.Symbols = append(f.Symbols, &Symbol{
				Name: name, Section: si, Size: uint32(len(body)), Func: true,
			})
			allGlobals = append(allGlobals, name)
		}
		// A data blob with a pointer to the file's first function.
		data := &Section{Name: DataSectionPrefix + fmt.Sprintf("tbl%d", fi), Kind: Data, Align: 4, Data: make([]byte, 8)}
		di := f.AddSection(data)
		data.Relocs = []Reloc{{Offset: 0, Type: RelAbs32, Sym: 0}}
		f.Symbols = append(f.Symbols, &Symbol{Name: fmt.Sprintf("tbl%d", fi), Section: di, Size: 8, Local: true})
		files = append(files, f)
	}
	// Fix pending call relocs to reference proper undefined symbols.
	for _, pc := range pendingCalls {
		idx := pc.f.SymbolIndex(pc.callee)
		pc.f.Sections[pc.sec].Relocs[pc.reloc].Sym = idx
	}
	pendingCalls = nil
	return files
}

type pendingCall struct {
	f      *File
	sec    int
	reloc  int
	callee string
}

var pendingCalls []pendingCall

// Property: for random valid inputs, the linker (a) places every section
// without overlap and with correct alignment, (b) resolves every call to
// the named function's address.
func TestLinkPropertyPlacementAndResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		files := randomFiles(rng, 1+rng.Intn(4))
		im, err := Link(files, LinkOptions{Base: 0x10000})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// (a) no overlap, alignment respected.
		type span struct{ lo, hi uint32 }
		var spans []span
		for _, ps := range im.Sections {
			if ps.Size == 0 {
				continue
			}
			for _, other := range spans {
				if ps.Addr < other.hi && other.lo < ps.Addr+ps.Size {
					t.Fatalf("trial %d: overlap at %#x", trial, ps.Addr)
				}
			}
			spans = append(spans, span{ps.Addr, ps.Addr + ps.Size})
		}
		for _, s := range im.Symbols {
			if s.Func && s.Addr%16 != 0 {
				t.Fatalf("trial %d: %s misaligned at %#x", trial, s.Name, s.Addr)
			}
		}
		// (b) every call lands on a defined function symbol.
		for _, s := range im.Symbols {
			if !s.Func {
				continue
			}
			code := im.Bytes[s.Addr-im.Base : s.Addr-im.Base+s.Size]
			for off := 0; off < len(code); {
				in, err := isa.Decode(code, off)
				if err != nil {
					t.Fatalf("trial %d: %s+%#x: %v", trial, s.Name, off, err)
				}
				if in.Op == isa.OpCALL {
					target := in.Target(s.Addr + uint32(off))
					if fn, ok := im.FuncAt(target); !ok || fn.Addr != target {
						t.Fatalf("trial %d: call from %s to %#x lands nowhere", trial, s.Name, target)
					}
				}
				off += in.Len
			}
		}
	}
}
