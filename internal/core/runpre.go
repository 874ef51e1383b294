package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"gosplice/internal/isa"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
	"gosplice/internal/vm"
)

// ErrRunPreMismatch is wrapped by every matching failure: the running
// code does not correspond to the pre code, so the update must abort
// (paper section 4.3).
var ErrRunPreMismatch = errors.New("core: run-pre mismatch")

// MatchResult is the outcome of matching one compilation unit's pre
// object against the running kernel.
type MatchResult struct {
	// Unit is the compilation unit path.
	Unit string
	// Vals maps each pre-file symbol name to its recovered run address:
	// matched function anchors plus every symbol inferred from relocation
	// sites (S = val + Prun - A for PC-relative, S = val - A for
	// absolute).
	Vals map[string]uint32
	// Anchors maps each matched pre function to the run-code symbol it
	// matched, carrying the address and extent the safety check needs.
	Anchors map[string]kernel.Sym
	// BytesMatched counts pre text bytes verified against run code.
	BytesMatched int
}

// inference accumulates symbol values with cross-site consistency
// checking: the same name inferred at two sites must agree — modulo
// trampolines. In a previously-patched kernel an unchanged caller still
// calls the original (trampolined) entry while the patched function
// itself matches at its replacement address; both are the same symbol, so
// values are canonicalized by following applied trampolines before
// comparison (section 5.4).
type inference struct {
	vals  map[string]uint32
	canon func(uint32) uint32
}

func (inf *inference) canonical(v uint32) uint32 {
	if inf.canon == nil {
		return v
	}
	return inf.canon(v)
}

func (inf *inference) record(name string, val uint32) error {
	val = inf.canonical(val)
	if prev, ok := inf.vals[name]; ok && prev != val {
		return fmt.Errorf("%w: symbol %q inferred as both %#x and %#x", ErrRunPreMismatch, name, prev, val)
	}
	inf.vals[name] = val
	return nil
}

// trialInference overlays one candidate trial's inferences on the
// committed base without copying it. Reads consult the overlay first and
// fall back to the base; writes (and conflicts) land in the overlay. A
// failed candidate's overlay is simply dropped; a uniquely matching
// candidate's overlay is merged into the base by commit. This replaces a
// full map copy per kallsyms candidate — quadratic in unit size for
// ambiguous names — with state proportional to the one function tried.
type trialInference struct {
	base    *inference
	overlay map[string]uint32
}

func newTrial(base *inference) *trialInference {
	return &trialInference{base: base, overlay: map[string]uint32{}}
}

func (tr *trialInference) record(name string, val uint32) error {
	val = tr.base.canonical(val)
	if prev, ok := tr.overlay[name]; ok {
		if prev != val {
			return fmt.Errorf("%w: symbol %q inferred as both %#x and %#x", ErrRunPreMismatch, name, prev, val)
		}
		return nil
	}
	if prev, ok := tr.base.vals[name]; ok && prev != val {
		return fmt.Errorf("%w: symbol %q inferred as both %#x and %#x", ErrRunPreMismatch, name, prev, val)
	}
	tr.overlay[name] = val
	return nil
}

// commit merges the trial's inferences into the base.
func (tr *trialInference) commit() {
	for k, v := range tr.overlay {
		tr.base.vals[k] = v
	}
}

// MatchUnit run-pre matches every function of a pre object file against
// kernel memory. mem is the machine memory (caller holds the machine
// lock or the machine is stopped), symtab the running kernel's symbol
// table. On success the result carries recovered symbol values for the
// unit; any inconsistency returns an ErrRunPreMismatch-wrapped error.
// MatchUnit uses identity canonicalization; stacked updates go through
// MatchUnitCanon.
func MatchUnit(mem *vm.Memory, symtab *kernel.SymTab, preF *obj.File) (*MatchResult, error) {
	return MatchUnitCanon(mem, symtab, preF, nil)
}

// MatchUnitCanon is MatchUnit with an address canonicalizer that follows
// already-applied trampolines, required when matching against a
// previously-patched kernel.
func MatchUnitCanon(mem *vm.Memory, symtab *kernel.SymTab, preF *obj.File, canon func(uint32) uint32) (*MatchResult, error) {
	res := &MatchResult{
		Unit:    preF.SourcePath,
		Vals:    map[string]uint32{},
		Anchors: map[string]kernel.Sym{},
	}
	inf := &inference{vals: map[string]uint32{}, canon: canon}

	// Match functions in section order. Each must match exactly one
	// kallsyms candidate of its name.
	for _, sec := range preF.Sections {
		fname := obj.FuncNameOfSection(sec.Name)
		if fname == "" {
			continue
		}
		sym := preF.Symbol(fname)
		if sym == nil || !sym.Func {
			return nil, fmt.Errorf("%w: pre object %s has no function symbol for %s", ErrRunPreMismatch, preF.SourcePath, sec.Name)
		}
		// The pre side of the walk — no-op skipping, instruction decode,
		// and the relocation index — depends only on the pre section, so
		// it is computed once here and reused for every kallsyms
		// candidate instead of being redone per trial.
		scan, err := scanPre(sec, preF)
		if err != nil {
			return nil, err
		}
		candidates := symtab.Lookup(fname)
		var matches []kernel.Sym
		var failures []string
		// Each candidate is trial-matched against the same pre-section
		// inference state; the winner's inferences and byte count are
		// committed only once the function is known to match uniquely.
		// Committing inside the loop would seed later candidates' trials
		// with the first match's inferences, which can fail a genuinely
		// matching second candidate on a manufactured conflict and turn a
		// true ambiguity into a silent (wrong) unique match.
		var matchTrial *trialInference
		var matchBytes int
		for _, cand := range candidates {
			if !cand.Func {
				continue
			}
			// Trial-match against an overlay on the committed inference so
			// a failed candidate leaves no partial state.
			trial := newTrial(inf)
			n, err := matchFunc(mem, cand.Addr, scan, trial)
			if err != nil {
				failures = append(failures, fmt.Sprintf("  candidate %#x (%s): %v", cand.Addr, cand.Owner, err))
				continue
			}
			matches = append(matches, cand)
			if len(matches) == 1 {
				matchTrial = trial
				matchBytes = n
			}
		}
		switch len(matches) {
		case 0:
			detail := "no kallsyms candidates"
			if len(failures) > 0 {
				detail = "\n" + joinLines(failures)
			}
			return nil, fmt.Errorf("%w: function %s of %s does not match the running kernel: %s",
				ErrRunPreMismatch, fname, preF.SourcePath, detail)
		case 1:
			matchTrial.commit()
			res.BytesMatched += matchBytes
			res.Anchors[fname] = matches[0]
			if err := inf.record(fname, matches[0].Addr); err != nil {
				return nil, err
			}
		default:
			// Report where each candidate matched and why the others
			// failed: an ambiguity abort is actionable only if the
			// operator can see all the locations involved.
			var detail []string
			for _, m := range matches {
				detail = append(detail, fmt.Sprintf("  candidate %#x (%s): matches", m.Addr, m.Owner))
			}
			detail = append(detail, failures...)
			return nil, fmt.Errorf("%w: function %s of %s matches %d distinct run locations:\n%s",
				ErrRunPreMismatch, fname, preF.SourcePath, len(matches), joinLines(detail))
		}
	}

	// Verify inferred read-only data against run memory (immutable, so a
	// mismatch means the wrong symbol was inferred or the source does not
	// correspond to the kernel).
	for _, sym := range preF.Symbols {
		if !sym.Defined() {
			continue
		}
		sec := preF.Sections[sym.Section]
		if sec.Kind != obj.ROData || len(sec.Relocs) != 0 {
			continue
		}
		addr, ok := inf.vals[sym.Name]
		if !ok {
			continue
		}
		lo, hi := int(sym.Value), int(sym.Value+sym.Size)
		if hi > len(sec.Data) || lo > hi {
			return nil, fmt.Errorf("%w: rodata %q extends past its pre section (%d..%d of %d bytes)",
				ErrRunPreMismatch, sym.Name, lo, hi, len(sec.Data))
		}
		if int(addr)+hi-lo > mem.Len() {
			return nil, fmt.Errorf("%w: rodata %q inferred at %#x outside memory", ErrRunPreMismatch, sym.Name, addr)
		}
		if !mem.EqualAt(sec.Data[lo:hi], addr) {
			return nil, fmt.Errorf("%w: rodata %q at %#x differs from pre contents", ErrRunPreMismatch, sym.Name, addr)
		}
	}

	if err := inf.checkKallsyms(symtab); err != nil {
		return nil, err
	}
	res.Vals = inf.vals
	return res, nil
}

// checkKallsyms refuses an inferred value that kallsyms contradicts. A
// relocated field's run value becomes its symbol's address (§4.2), and
// record checks it only against the unit's other sites, so one rewritten
// field could send the replacement code to any address. A name kallsyms
// holds must therefore infer one of its entries' addresses or that
// address's canonical form (a trampolined entry's replacement, §5.4).
// Names kallsyms lacks are exempt: a real kallsyms table may omit
// symbols.
func (inf *inference) checkKallsyms(symtab *kernel.SymTab) error {
	var bad []string
	for name, v := range inf.vals {
		cands := symtab.Lookup(name)
		ok := len(cands) == 0
		for _, c := range cands {
			if v == c.Addr || v == inf.canonical(c.Addr) {
				ok = true
				break
			}
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("symbol %q inferred at %#x, none of its %d kallsyms entries", name, v, len(cands)))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%w: %s", ErrRunPreMismatch, strings.Join(bad, "; "))
}

func joinLines(lines []string) string {
	sort.Strings(lines)
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// preStep is one pre instruction: its offset (at an instruction
// boundary, after no-op skipping), its length, and the relocation (if
// any) whose field lies inside it. The decoded instruction is not kept:
// matchFunc compares bytes first and decodes the pre side again only
// where it must.
type preStep struct {
	off, n uint32
	rel    *obj.Reloc
	// sym is the relocation's symbol name; "" when rel is nil.
	sym string
}

// preScan is the candidate-independent half of run-pre matching one
// function section: the no-op-skipped instruction boundaries and each
// instruction's relocation. Built once per section by scanPre and reused
// across every kallsyms candidate trial.
type preScan struct {
	data  []byte
	steps []preStep
}

// stepAt returns the index of the step at pre offset off, or len(steps)
// for the function end. ok is false when off is neither.
func (s *preScan) stepAt(off uint32) (int, bool) {
	if int(off) == len(s.data) {
		return len(s.steps), true
	}
	i, ok := slices.BinarySearchFunc(s.steps, off, func(st preStep, off uint32) int { return cmp.Compare(st.off, off) })
	return i, ok
}

// scanPre decodes one pre function section. Errors here are properties of
// the pre object alone (undecodable code, malformed relocations), so they
// abort the whole match rather than just one candidate.
func scanPre(sec *obj.Section, preF *obj.File) (*preScan, error) {
	pre, relocs := sec.Data, sec.Relocs
	// A cursor walks the relocations alongside the instructions. Codegen
	// emits them in offset order; any other list is walked as a stably
	// sorted copy, which keeps relocations at one offset in list order,
	// so of two at one offset the later one counts.
	byOffset := func(a, b obj.Reloc) int { return cmp.Compare(a.Offset, b.Offset) }
	if !slices.IsSortedFunc(relocs, byOffset) {
		relocs = slices.Clone(relocs)
		slices.SortStableFunc(relocs, byOffset)
	}
	// Count the instructions first, from their opcode bytes alone, so
	// steps is allocated once at its final size.
	n := 0
	for off := isa.SkipNops(pre, 0); off < len(pre); off = isa.SkipNops(pre, off+max(isa.Op(pre[off]).Len(), 1)) {
		n++
	}
	scan := &preScan{data: pre, steps: make([]preStep, 0, n)}
	badPre := func(p uint32, format string, args ...any) error {
		return fmt.Errorf("%w: %s at pre+%#x: %s", ErrRunPreMismatch, sec.Name, p, fmt.Sprintf(format, args...))
	}
	p, next := uint32(0), 0 // next: the relocation cursor
	for int(p) < len(pre) {
		p = uint32(isa.SkipNops(pre, int(p)))
		if int(p) >= len(pre) {
			break
		}
		preIn, err := isa.Decode(pre, int(p))
		if err != nil {
			return nil, badPre(p, "pre decode: %v", err)
		}
		st := preStep{off: p, n: uint32(preIn.Len)}
		// Relocation inside this pre instruction? The first field offset
		// inside it counts.
		for next < len(relocs) && relocs[next].Offset < p {
			next++
		}
		if next < len(relocs) && relocs[next].Offset < p+st.n {
			for next+1 < len(relocs) && relocs[next+1].Offset == relocs[next].Offset {
				next++
			}
			st.rel = &relocs[next]
		}
		if rel := st.rel; rel != nil {
			st.sym = preF.Symbols[rel.Sym].Name
			switch rel.Type {
			case obj.RelAbs32, obj.RelAbs64:
				fieldOff := rel.Offset - p
				size := uint32(rel.Type.Size())
				if int(fieldOff)+int(size) > preIn.Len {
					return nil, badPre(p, "relocation field extends past the instruction")
				}
			case obj.RelPC32:
				if preIn.Op.Branch() == isa.BranchNone {
					return nil, badPre(p, "pc32 relocation on non-branch %s", preIn.Op.Name())
				}
			default:
				return nil, badPre(p, "unsupported relocation type %s in text", rel.Type)
			}
		}
		scan.steps = append(scan.steps, st)
		p += st.n
	}
	return scan, nil
}

// matchFunc walks one pre function (already scanned into scan) against
// run code at runAddr. It returns the number of pre bytes matched.
//
// The walk embodies the architecture knowledge of section 4.3: no-op
// sequences are recognized and skipped independently on both sides, and
// instruction lengths plus the PC-relative instruction table let the
// matcher verify that short- and near-encoded branches point at
// corresponding locations even though their offsets (and lengths) differ.
//
// A step without a relocation compares bytes first: equal bytes advance
// the walk with no decode on either side. Only a relocation step and a
// step whose bytes differ decode the run instruction, and the pre one
// again.
func matchFunc(mem *vm.Memory, runAddr uint32, scan *preScan, inf *trialInference) (int, error) {
	pre, steps := scan.data, scan.steps

	// corr[i] is the run address of step i, and corr[len(steps)] that of
	// the function end; branch targets must correspond.
	corr := make([]uint32, len(steps)+1)
	type pend struct{ preOff, runAddr uint32 }
	var pending []pend

	mismatch := func(p uint32, r uint32, format string, args ...any) error {
		return fmt.Errorf("%w: at pre+%#x/run %#x: %s", ErrRunPreMismatch, p, r, fmt.Sprintf(format, args...))
	}

	r := runAddr
	for i, st := range steps {
		p, n := st.off, st.n
		if int(r) >= mem.Len() {
			return 0, mismatch(p, r, "run cursor out of memory")
		}
		r = uint32(mem.SkipNops(int(r)))
		corr[i] = r

		// No relocation: identical bytes match.
		if st.rel == nil && int(r)+int(n) <= mem.Len() && mem.EqualAt(pre[p:p+n], r) {
			r += n
			continue
		}

		runIn, err := mem.DecodeAt(int(r))
		if err != nil {
			return 0, mismatch(p, r, "run decode: %v", err)
		}
		// scanPre decoded this instruction without error.
		preIn, _ := isa.Decode(pre, int(p))

		if rel := st.rel; rel != nil {
			switch rel.Type {
			case obj.RelAbs32, obj.RelAbs64:
				if runIn.Op != preIn.Op {
					return 0, mismatch(p, r, "opcode %s vs run %s at absolute relocation", preIn.Op.Name(), runIn.Op.Name())
				}
				fieldOff := rel.Offset - p
				size := uint32(rel.Type.Size())
				// Matching equal opcodes means equal lengths, but the run
				// instruction (and the relocated field within it) must
				// still lie wholly inside memory: run code near the end of
				// a truncated machine is a mismatch, never a crash.
				if int(r)+int(n) > mem.Len() {
					return 0, mismatch(p, r, "run instruction truncated by end of memory")
				}
				// All bytes outside the relocated field must agree.
				for i := uint32(0); i < n; i++ {
					if i >= fieldOff && i < fieldOff+size {
						continue
					}
					if pre[p+i] != mem.Byte(r+i) {
						return 0, mismatch(p, r, "byte %d differs outside relocation field", i)
					}
				}
				val := mem.LoadLE(r+fieldOff, int(size))
				// field = S + A  =>  S = val - A.
				s := uint32(val) - uint32(rel.Addend)
				if err := inf.record(st.sym, s); err != nil {
					return 0, err
				}
				r += uint32(runIn.Len)

			case obj.RelPC32:
				// External branch: the pre side is always near-form; the
				// run side may be near or short.
				if runIn.Op.Branch() != preIn.Op.Branch() {
					return 0, mismatch(p, r, "branch class %s vs run %s", preIn.Op.Name(), runIn.Op.Name())
				}
				if preIn.Op.Branch() == isa.BranchJcc && preIn.CC != runIn.CC {
					return 0, mismatch(p, r, "condition %s vs run %s", preIn.CC, runIn.CC)
				}
				// Pre semantics: target = S + A + 4 (field = S+A-P, target
				// = P+4+field). So S = run target - A - 4.
				target := runIn.Target(r)
				s := target - uint32(rel.Addend) - 4
				if err := inf.record(st.sym, s); err != nil {
					return 0, err
				}
				r += uint32(runIn.Len)
			}
			continue
		}

		// The bytes differ: the instructions must be equivalent branch
		// encodings with corresponding targets.
		bc := preIn.Op.Branch()
		if bc != isa.BranchNone && bc == runIn.Op.Branch() &&
			(bc != isa.BranchJcc || preIn.CC == runIn.CC) {
			preTarget := p + n + uint32(preIn.Rel)
			runTarget := runIn.Target(r)
			if int64(preTarget) > int64(len(pre)) {
				return 0, mismatch(p, r, "pre branch target %#x outside function", preTarget)
			}
			// A target at or before this step is resolved now; any other
			// waits for the end of the walk.
			if j, ok := scan.stepAt(preTarget); ok && j <= i {
				if got := corr[j]; got != runTarget {
					return 0, mismatch(p, r, "branch targets diverge: pre+%#x is run %#x, branch says %#x", preTarget, got, runTarget)
				}
			} else {
				pending = append(pending, pend{preTarget, runTarget})
			}
			r += uint32(runIn.Len)
			continue
		}
		return 0, mismatch(p, r, "code differs: pre %s vs run %s", preIn, runIn)
	}
	// End-of-function correspondence (branches to the function end).
	corr[len(steps)] = r

	for _, pd := range pending {
		j, ok := scan.stepAt(pd.preOff)
		if !ok {
			return 0, fmt.Errorf("%w: branch target pre+%#x is not an instruction boundary", ErrRunPreMismatch, pd.preOff)
		}
		if got := corr[j]; got != pd.runAddr {
			return 0, fmt.Errorf("%w: forward branch to pre+%#x resolves to run %#x, expected %#x",
				ErrRunPreMismatch, pd.preOff, got, pd.runAddr)
		}
	}
	return len(pre), nil
}
