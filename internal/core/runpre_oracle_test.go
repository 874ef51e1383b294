package core

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"gosplice/internal/cvedb"
	"gosplice/internal/isa"
	"gosplice/internal/kernel"
	"gosplice/internal/vm"
)

// oracleMinFlips is the number of single-byte flips the corpus gives
// TestRunPreMutationOracle: every byte of every run function that run-pre
// anchors, over all 64 updates. A smaller count means the oracle covers
// less code; lower it only together with the change that shrinks the
// corpus.
const oracleMinFlips = 32605

// TestRunPreMutationOracle is the mutation oracle of run-pre matching
// (paper §4.3): for every corpus update, each helper unit is matched
// clean against its freshly booted release, then every byte of every
// anchored run function is XORed with 0x5a in turn and the unit is
// matched again. Every flip must be refused with ErrRunPreMismatch,
// except a pad byte of a multi-byte no-op whose decode the flip leaves
// unchanged and whose match infers exactly what the clean match did.
// Each call or near jump to a kallsyms symbol, and each movi of one's
// address, is also rewritten to another kallsyms function's address,
// and that must be refused too.
func TestRunPreMutationOracle(t *testing.T) {
	kernels := map[string]*kernel.Kernel{}
	var flips, refused, padAccepted, redirects int
	for _, c := range cvedb.All() {
		tree := cvedb.Tree(c.Version)
		k := kernels[c.Version]
		if k == nil {
			k = boot(t, tree)
			kernels[c.Version] = k
		}
		u, err := CreateUpdate(tree, c.Patch(), CreateOptions{Name: "oracle"})
		if err != nil {
			t.Fatalf("%s: create: %v", c.ID, err)
		}
		byAddr := map[uint32][]string{}
		var funcs []kernel.Sym
		for _, s := range k.Syms.All() {
			byAddr[s.Addr] = append(byAddr[s.Addr], s.Name)
			if s.Func {
				funcs = append(funcs, s)
			}
		}
		k.Lock()
		mem := k.LockedMem()
		for _, uu := range u.Units {
			if uu.Helper == nil {
				continue
			}
			clean, err := MatchUnit(mem, k.Syms, uu.Helper)
			if err != nil {
				t.Fatalf("%s %s: clean match: %v", c.ID, uu.Path, err)
			}
			match := func(what string) error {
				res, err := MatchUnit(mem, k.Syms, uu.Helper)
				if err != nil && !errors.Is(err, ErrRunPreMismatch) {
					t.Errorf("%s %s: %s: error is not ErrRunPreMismatch: %v", c.ID, uu.Path, what, err)
				}
				if err == nil && !maps.Equal(res.Vals, clean.Vals) {
					return errChangedInference
				}
				return err
			}
			fnames := make([]string, 0, len(clean.Anchors))
			for fname := range clean.Anchors {
				fnames = append(fnames, fname)
			}
			slices.Sort(fnames)
			for _, fname := range fnames {
				sym := clean.Anchors[fname]
				insns := runInsns(t, mem, sym)
				for addr := sym.Addr; addr < sym.Addr+sym.Size; addr++ {
					b := mem.Byte(addr)
					mem.SetByte(addr, b^0x5a)
					err := match(fname)
					mem.SetByte(addr, b)
					flips++
					switch {
					case err == nil && padUnchanged(mem, insns, addr):
						padAccepted++
					case err == nil:
						t.Errorf("%s %s: flip at %s+%d accepted, not a no-op pad byte", c.ID, uu.Path, fname, addr-sym.Addr)
					case errors.Is(err, errChangedInference):
						t.Errorf("%s %s: flip at %s+%d accepted with changed inferences", c.ID, uu.Path, fname, addr-sym.Addr)
					default:
						refused++
					}
				}
				for _, in := range insns {
					field, ok := redirect(in, byAddr, funcs, k.Syms)
					if !ok {
						continue
					}
					old := mem.ReadBytes(in.addr, in.Len)
					mem.WriteAt(in.addr, field)
					err := match(fname)
					mem.WriteAt(in.addr, old)
					redirects++
					if err == nil || errors.Is(err, errChangedInference) {
						t.Errorf("%s %s: %s at %s+%d redirected to %s accepted (%v)",
							c.ID, uu.Path, in.Insn, fname, in.addr-sym.Addr, mustDecode(field), err)
					}
				}
			}
		}
		k.Unlock()
	}
	t.Logf("%d flips: %d refused, %d no-op pad bytes accepted; %d redirected references refused",
		flips, refused, padAccepted, redirects)
	if flips < oracleMinFlips {
		t.Errorf("%d flips, want at least %d: the oracle covers less run code", flips, oracleMinFlips)
	}
	if redirects == 0 {
		t.Error("no relocated field was redirected")
	}
}

var errChangedInference = errors.New("accepted with changed inferences")

// runInsn is one instruction of a clean run function and its address.
type runInsn struct {
	isa.Insn
	addr uint32
}

// runInsns decodes the clean run function sym instruction by
// instruction, no-ops included.
func runInsns(t *testing.T, mem *vm.Memory, sym kernel.Sym) []runInsn {
	t.Helper()
	var out []runInsn
	for addr := sym.Addr; addr < sym.Addr+sym.Size; {
		in, err := mem.DecodeAt(int(addr))
		if err != nil {
			t.Fatalf("%s+%d: %v", sym.Name, addr-sym.Addr, err)
		}
		out = append(out, runInsn{in, addr})
		addr += uint32(in.Len)
	}
	return out
}

// padUnchanged reports whether addr is a pad byte (not the opcode) of a
// multi-byte no-op whose decode a flip of that byte leaves unchanged.
func padUnchanged(mem *vm.Memory, insns []runInsn, addr uint32) bool {
	i, _ := slices.BinarySearchFunc(insns, addr+1, func(in runInsn, a uint32) int { return int(in.addr) - int(a) })
	in := insns[i-1]
	if addr == in.addr || (in.Op != isa.OpNOP2 && in.Op != isa.OpNOP3 && in.Op != isa.OpNOP4) {
		return false
	}
	b := mem.ReadBytes(in.addr, in.Len)
	b[addr-in.addr] ^= 0x5a
	got, err := isa.Decode(b, 0)
	return err == nil && got == in.Insn
}

// redirect returns in re-encoded to reference another kallsyms function
// instead of the symbol it references: a near call or jump whose target
// is a symbol, or a movi of a symbol's address. ok is false when in
// references no symbol. The new function shares no name with the old
// address, and no entry of those names lies at the new address, so the
// inference it leads to is one kallsyms contradicts.
func redirect(in runInsn, byAddr map[uint32][]string, funcs []kernel.Sym, syms *kernel.SymTab) (field []byte, ok bool) {
	var ref uint32
	switch in.Op {
	case isa.OpCALL, isa.OpJMP:
		ref = in.Target(in.addr)
	case isa.OpMOVI, isa.OpMOVI64:
		ref = uint32(in.Imm)
		if int64(ref) != in.Imm {
			return nil, false
		}
	default:
		return nil, false
	}
	names := byAddr[ref]
	if len(names) == 0 || ref == 0 {
		return nil, false
	}
	for _, f := range funcs {
		if f.Addr <= ref || slices.Contains(names, f.Name) || aliases(syms, names, f.Addr) {
			continue
		}
		out := in.Insn
		if in.Op == isa.OpCALL || in.Op == isa.OpJMP {
			out.Rel = int32(f.Addr - (in.addr + uint32(in.Len)))
		} else {
			out.Imm = int64(f.Addr)
		}
		return isa.Encode(nil, out), true
	}
	return nil, false
}

// aliases reports whether any kallsyms entry of names lies at addr.
func aliases(syms *kernel.SymTab, names []string, addr uint32) bool {
	for _, n := range names {
		for _, s := range syms.Lookup(n) {
			if s.Addr == addr {
				return true
			}
		}
	}
	return false
}

func mustDecode(b []byte) isa.Insn {
	in, _ := isa.Decode(b, 0)
	return in
}
