package isa

import "encoding/binary"

// nopPad fills the ignored payload bytes of NOP2..NOP4.
const nopPad = 0x66

func regs(rd, rs Reg) byte { return byte(rd&0x0f) | byte(rs&0x0f)<<4 }

// Encode appends the encoding of in to b and returns the extended slice.
// It is the inverse of Decode: the opcode's layout says which of in's
// fields are written and where, and in.Len is ignored. Encode panics if
// in.Op is not a defined opcode.
func Encode(b []byte, in Insn) []byte {
	info := &opInfos[in.Op]
	if info.name == "" {
		panic("isa: Encode of undefined opcode " + in.Op.Name())
	}
	le := binary.LittleEndian
	b = append(b, byte(in.Op))
	switch info.layout {
	case layNone:
	case layPad1, layPad2, layPad3:
		for n := layoutLen[info.layout]; n > 1; n-- {
			b = append(b, nopPad)
		}
	case layRegs:
		b = append(b, regs(in.Rd, in.Rs))
	case layReg:
		b = append(b, regs(in.Rd, 0))
	case layRegImm:
		b = le.AppendUint32(append(b, regs(in.Rd, 0)), uint32(in.Imm))
	case layRegImm64:
		b = le.AppendUint64(append(b, regs(in.Rd, 0)), uint64(in.Imm))
	case layRegDisp:
		b = le.AppendUint32(append(b, regs(in.Rd, in.Rs)), uint32(in.Disp))
	case layRegCC:
		b = append(b, regs(in.Rd, 0), byte(in.CC))
	case layRel32:
		b = le.AppendUint32(b, uint32(in.Rel))
	case layRel8:
		b = append(b, byte(in.Rel))
	case layCCRel32:
		b = le.AppendUint32(append(b, byte(in.CC)), uint32(in.Rel))
	case layCCRel8:
		b = append(b, byte(in.CC), byte(in.Rel))
	case layImm16:
		b = le.AppendUint16(b, uint16(in.Imm))
	}
	return b
}

// Nop appends n bytes of no-op padding using the canonical multi-byte
// no-op sequences (longest first), matching what the assembler emits for
// alignment.
func Nop(b []byte, n int) []byte {
	for n > 0 {
		k := min(n, 4)
		b = Encode(b, Insn{Op: OpNOP + Op(k-1)}) // OpNOP..OpNOP4 are 1..4 bytes
		n -= k
	}
	return b
}

// Trampoline returns the 5-byte near-jump sequence that redirects
// execution from a function entry at from to replacement code at to. This
// is the jump instruction Ksplice writes over an obsolete function.
func Trampoline(from, to uint32) []byte {
	rel := int32(to) - (int32(from) + TrampolineLen)
	return Encode(make([]byte, 0, TrampolineLen), Insn{Op: OpJMP, Rel: rel})
}
