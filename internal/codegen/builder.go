// Package codegen translates checked MiniC units into SOF object files,
// and assembles MiniC asm() text and whole assembly source files.
//
// The compiler reproduces the gcc behaviours the paper's techniques are
// built around:
//
//   - Per-object sections (Options.ObjectSections, gcc's
//     -ffunction-sections -fdata-sections). With them, every function and
//     data object gets its own section and every cross-object reference
//     becomes a relocation (how Ksplice builds its pre and post objects).
//     Without them — how running kernels are actually built — a unit's
//     functions share one .text whose internal references the assembler
//     resolves directly, with alignment padding between and inside
//     functions. layout.go makes this choice for the compiler and the
//     assembler alike.
//   - Branch relaxation. In whole-.text mode, branches whose targets are
//     near enough use the 2-3 byte short forms; in function-sections mode
//     every branch uses the 5-6 byte near form (mirroring the paper's
//     observation that -ffunction-sections turns small relative jumps
//     into longer jumps). Same source, different bytes: exactly the
//     difference run-pre matching must see through.
//   - Loop-head alignment. Alignment padding depends on a function's
//     position within its section, so the same function padded at offset
//     0 (its own section) and at its link position (shared .text)
//     carries different no-op runs.
//   - Automatic inlining of small functions regardless of the `inline`
//     keyword.
package codegen

import (
	"fmt"

	"gosplice/internal/isa"
	"gosplice/internal/obj"
)

// relocRef is a relocation request against a symbol name; the unit
// assembler translates names to symbol-table indices at the end.
type relocRef struct {
	off    uint32 // within the fragment payload
	typ    obj.RelocType
	sym    string
	addend int32
}

type fragKind uint8

const (
	fragRaw    fragKind = iota // literal bytes, possibly with relocs
	fragBranch                 // branch needing target resolution/relaxation
	fragAlign                  // pad with no-ops to an alignment boundary
)

type frag struct {
	kind fragKind

	// fragBranch
	class  isa.BranchClass
	cc     isa.CC
	near   bool   // forced or grown to near form
	target string // label name or external symbol name

	// fragRaw: the payload is the builder's code[start:end]; relocs
	// are at offsets within it.
	start, end uint32
	relocs     []relocRef

	// fragAlign
	align uint32

	// computed during layout
	off  uint32
	size uint32
}

// Builder accumulates code for one output section, resolving local labels
// with branch relaxation and emitting relocations for everything else.
type Builder struct {
	name  string
	frags []frag
	// code holds every raw frag's payload, in order.
	code []byte
	// pinned is the frag index the latest label or symbol marker
	// points at: literal bytes join the previous raw frag unless a
	// marker sits between them.
	pinned int
	// labels maps a label to the index of the frag it precedes.
	labels map[string]int
	// syms records symbol extents: label -> start marker; sizes computed
	// against end labels.
	symStart map[string]int
	symEnd   map[string]int
	// relax enables short branch forms for in-range local targets.
	relax bool
	// pendingRelocs carries the name-based relocations produced by the
	// most recent Finalize.
	pendingRelocs []relocRef
	err           error
}

// NewBuilder creates a section builder. relax selects whether local
// branches may use short encodings.
func NewBuilder(name string, relax bool) *Builder {
	return &Builder{
		name:     name,
		labels:   make(map[string]int),
		symStart: make(map[string]int),
		symEnd:   make(map[string]int),
		relax:    relax,
	}
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label defines a local label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.setErr(fmt.Errorf("codegen: duplicate label %q in %s", name, b.name))
		return
	}
	b.labels[name] = len(b.frags)
	b.pinned = len(b.frags)
}

// BeginSym marks the start of a named symbol (function or data object).
func (b *Builder) BeginSym(name string) {
	b.Label(name)
	b.symStart[name] = len(b.frags)
}

// EndSym marks the end of a named symbol.
func (b *Builder) EndSym(name string) {
	b.symEnd[name] = len(b.frags)
	b.pinned = len(b.frags)
}

// Emit appends one instruction, encoded straight into the code buffer.
func (b *Builder) Emit(in isa.Insn) {
	f := b.rawFrag()
	b.code = isa.Encode(b.code, in)
	f.end = uint32(len(b.code))
}

// MoviSym appends "movi rd, #sym": its imm32, after the opcode and
// register bytes, carries an absolute relocation against sym.
func (b *Builder) MoviSym(rd isa.Reg, sym string) {
	f := b.rawFrag()
	f.relocs = append(f.relocs, relocRef{off: f.end - f.start + 2, typ: obj.RelAbs32, sym: sym})
	b.Emit(isa.Insn{Op: isa.OpMOVI, Rd: rd})
}

// rawFrag returns the open raw frag, opening one when the last frag is
// not raw or a marker points past it.
func (b *Builder) rawFrag() *frag {
	n := len(b.frags)
	if n == 0 || n == b.pinned || b.frags[n-1].kind != fragRaw {
		at := uint32(len(b.code))
		b.frags = append(b.frags, frag{kind: fragRaw, start: at, end: at})
		n++
	}
	return &b.frags[n-1]
}

// Align pads to an n-byte boundary with no-op instructions.
func (b *Builder) Align(n uint32) {
	b.frags = append(b.frags, frag{kind: fragAlign, align: n})
}

// Jmp appends an unconditional jump to a local label or external symbol.
func (b *Builder) Jmp(target string) {
	b.frags = append(b.frags, frag{kind: fragBranch, class: isa.BranchJmp, target: target})
}

// Jcc appends a conditional jump.
func (b *Builder) Jcc(cc isa.CC, target string) {
	b.frags = append(b.frags, frag{kind: fragBranch, class: isa.BranchJcc, cc: cc, target: target})
}

// Call appends a call. Calls always use the near form.
func (b *Builder) Call(target string) {
	b.frags = append(b.frags, frag{kind: fragBranch, class: isa.BranchCall, target: target, near: true})
}

// branchOps holds each branch class's near and short opcode. A call
// has no short form.
var branchOps = [...][2]isa.Op{
	isa.BranchJmp:  {isa.OpJMP, isa.OpJMPS},
	isa.BranchJcc:  {isa.OpJCC, isa.OpJCCS},
	isa.BranchCall: {isa.OpCALL, isa.OpCALL},
}

// insn returns the branch instruction f lays out as, without its
// displacement.
func (f *frag) insn() isa.Insn {
	op := branchOps[f.class][1]
	if f.near {
		op = branchOps[f.class][0]
	}
	return isa.Insn{Op: op, CC: f.cc}
}

// Finalize lays out the section, relaxing branches and computing
// alignment, and returns the section plus the symbol extents defined via
// BeginSym/EndSym.
func (b *Builder) Finalize(kind obj.SectionKind, align uint32) (*obj.Section, map[string][2]uint32, error) {
	if b.err != nil {
		return nil, nil, b.err
	}

	// Initial sizing: short where permitted (local target and relaxation
	// on), near otherwise. Then grow monotonically until every short
	// branch fits; alignment pads are recomputed every pass.
	for i := range b.frags {
		f := &b.frags[i]
		if f.kind != fragBranch {
			continue
		}
		_, local := b.labels[f.target]
		if !local {
			f.near = true // external targets need relocations: near only
		}
		if !b.relax {
			f.near = true
		}
	}

	for pass := 0; ; pass++ {
		if pass > len(b.frags)+8 {
			return nil, nil, fmt.Errorf("codegen: relaxation did not converge in %s", b.name)
		}
		// Compute offsets.
		var off uint32
		for i := range b.frags {
			f := &b.frags[i]
			f.off = off
			switch f.kind {
			case fragRaw:
				f.size = f.end - f.start
			case fragBranch:
				f.size = uint32(f.insn().Op.Len())
			case fragAlign:
				f.size = pad(off, f.align)
			}
			off += f.size
		}
		// Grow out-of-range short branches.
		changed := false
		for i := range b.frags {
			f := &b.frags[i]
			if f.kind != fragBranch || f.near {
				continue
			}
			ti, ok := b.labels[f.target]
			if !ok {
				return nil, nil, fmt.Errorf("codegen: undefined label %q in %s", f.target, b.name)
			}
			rel := int64(b.fragOffset(ti)) - int64(f.off+f.size)
			if rel < -128 || rel > 127 {
				f.near = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Emit.
	sec := &obj.Section{Name: b.name, Kind: kind, Align: align}
	out := make([]byte, 0, b.fragOffset(len(b.frags)))
	var refs []relocRef
	for i := range b.frags {
		f := &b.frags[i]
		base := uint32(len(out))
		if base != f.off {
			return nil, nil, fmt.Errorf("codegen: layout drift in %s: %#x != %#x", b.name, base, f.off)
		}
		switch f.kind {
		case fragRaw:
			out = append(out, b.code[f.start:f.end]...)
			for _, r := range f.relocs {
				r.off += base
				refs = append(refs, r)
			}
		case fragAlign:
			out = isa.Nop(out, int(f.size))
		case fragBranch:
			in := f.insn()
			ti, local := b.labels[f.target]
			if local {
				in.Rel = int32(int64(b.fragOffset(ti)) - int64(f.off+f.size))
			}
			out = isa.Encode(out, in)
			if !local {
				// External: near form with a PC-relative relocation on
				// the displacement, which is measured from the end of
				// the instruction (addend -4 for a field that ends it).
				off, _, _ := in.RelInfo()
				refs = append(refs, relocRef{off: base + uint32(off), typ: obj.RelPC32, sym: f.target, addend: int32(off - int(f.size))})
			}
		}
	}
	sec.Data = out

	// Symbol extents.
	exts := make(map[string][2]uint32, len(b.symStart))
	for name, si := range b.symStart {
		start := b.fragOffset(si)
		endIdx, ok := b.symEnd[name]
		if !ok {
			return nil, nil, fmt.Errorf("codegen: symbol %q not ended in %s", name, b.name)
		}
		end := b.fragOffset(endIdx)
		exts[name] = [2]uint32{start, end - start}
	}

	// Store name-based relocs in the section temporarily via a side
	// table returned to the unit assembler.
	b.pendingRelocs = refs
	return sec, exts, nil
}

// pendingRelocs carries the name-based relocations of the most recent
// Finalize; the unit assembler resolves names to symbol indices.
func (b *Builder) PendingRelocs() []relocRef { return b.pendingRelocs }

func (b *Builder) fragOffset(idx int) uint32 {
	if idx >= len(b.frags) {
		// Label at end of section.
		if len(b.frags) == 0 {
			return 0
		}
		last := &b.frags[len(b.frags)-1]
		return last.off + last.size
	}
	return b.frags[idx].off
}

func pad(off, align uint32) uint32 {
	if align <= 1 {
		return 0
	}
	rem := off % align
	if rem == 0 {
		return 0
	}
	return align - rem
}
