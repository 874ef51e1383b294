package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Insn is one decoded SIM32 instruction. The byte-sized fields come
// first so that it packs into 32 bytes: the interpreter's decode cache
// holds 2,048 of them per machine.
type Insn struct {
	Op Op
	Rd Reg // destination register (layRegs/layReg/layRegImm/layRegDisp/layRegCC)
	Rs Reg // source register (layRegs/layRegDisp)
	CC CC  // condition code (layRegCC/layCCRel*)

	Disp int32 // memory displacement (layRegDisp)
	Rel  int32 // PC-relative displacement (branch layouts), from next insn
	Len  int   // encoded length in bytes
	Imm  int64 // immediate (layRegImm/layRegImm64/layImm16)
}

// RelInfo describes the PC-relative operand of in, if any: its byte offset
// within the instruction and its size in bytes (1 or 4). ok is false for
// instructions with no PC-relative operand. This is the "list of
// instructions that take an offset relative to the program counter"
// knowledge that run-pre matching requires (paper section 4.3).
func (in Insn) RelInfo() (off, size int, ok bool) {
	switch opInfos[in.Op].layout {
	case layRel32:
		return 1, 4, true
	case layRel8:
		return 1, 1, true
	case layCCRel32:
		return 2, 4, true
	case layCCRel8:
		return 2, 1, true
	}
	return 0, 0, false
}

// Target returns the branch target of a PC-relative instruction decoded at
// address addr. It panics if in has no PC-relative operand.
func (in Insn) Target(addr uint32) uint32 {
	if _, _, ok := in.RelInfo(); !ok {
		panic("isa: Target on non-PC-relative instruction " + in.Op.Name())
	}
	return addr + uint32(in.Len) + uint32(in.Rel)
}

// Decode decodes the instruction starting at code[off]. It returns an
// error if the opcode is undefined or the instruction is truncated.
func Decode(code []byte, off int) (Insn, error) {
	if off < 0 || off >= len(code) {
		return Insn{}, fmt.Errorf("isa: decode offset %#x out of range", off)
	}
	op := Op(code[off])
	info := &opInfos[op]
	if info.name == "" {
		return Insn{}, fmt.Errorf("isa: undefined opcode %#02x at offset %#x", byte(op), off)
	}
	n := layoutLen[info.layout]
	if off+n > len(code) {
		return Insn{}, fmt.Errorf("isa: truncated %s at offset %#x (need %d bytes, have %d)",
			info.name, off, n, len(code)-off)
	}
	in := Insn{Op: op, Len: n}
	b := code[off : off+n]
	switch info.layout {
	case layNone, layPad1, layPad2, layPad3:
	case layRegs:
		in.Rd = Reg(b[1] & 0x0f)
		in.Rs = Reg(b[1] >> 4)
	case layReg:
		in.Rd = Reg(b[1] & 0x0f)
	case layRegImm:
		in.Rd = Reg(b[1] & 0x0f)
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[2:])))
	case layRegImm64:
		in.Rd = Reg(b[1] & 0x0f)
		in.Imm = int64(binary.LittleEndian.Uint64(b[2:]))
	case layRegDisp:
		in.Rd = Reg(b[1] & 0x0f)
		in.Rs = Reg(b[1] >> 4)
		in.Disp = int32(binary.LittleEndian.Uint32(b[2:]))
	case layRegCC:
		in.Rd = Reg(b[1] & 0x0f)
		in.CC = CC(b[2])
	case layRel32:
		in.Rel = int32(binary.LittleEndian.Uint32(b[1:]))
	case layRel8:
		in.Rel = int32(int8(b[1]))
	case layCCRel32:
		in.CC = CC(b[1])
		in.Rel = int32(binary.LittleEndian.Uint32(b[2:]))
	case layCCRel8:
		in.CC = CC(b[1])
		in.Rel = int32(int8(b[2]))
	case layImm16:
		in.Imm = int64(binary.LittleEndian.Uint16(b[1:]))
	}
	if (in.Op == OpJCC || in.Op == OpJCCS || in.Op == OpSETCC) && in.CC >= NumCC {
		return Insn{}, fmt.Errorf("isa: invalid condition code %d at offset %#x", in.CC, off)
	}
	if in.Rd >= NumRegs || in.Rs >= NumRegs {
		return Insn{}, fmt.Errorf("isa: invalid register in %s at offset %#x", info.name, off)
	}
	return in, nil
}

// NopLen reports the length of the no-op instruction at code[off], or 0 if
// the byte there does not begin a complete no-op. Assemblers insert NOP..
// NOP4 sequences for alignment; run-pre matching must recognize and skip
// them (paper section 4.3).
func NopLen(code []byte, off int) int {
	if off < 0 || off >= len(code) {
		return 0
	}
	switch op := Op(code[off]); op {
	case OpNOP, OpNOP2, OpNOP3, OpNOP4:
		if n := op.Len(); off+n <= len(code) {
			return n
		}
	}
	return 0
}

// SkipNops returns the offset of the first non-no-op byte at or after off.
func SkipNops(code []byte, off int) int {
	for {
		n := NopLen(code, off)
		if n == 0 {
			return off
		}
		off += n
	}
}

// String renders the instruction as assembly text.
func (in Insn) String() string {
	info := opInfos[in.Op]
	switch info.layout {
	case layNone, layPad1, layPad2, layPad3:
		return info.name
	case layRegs:
		return fmt.Sprintf("%s %s, %s", info.name, in.Rd, in.Rs)
	case layReg:
		return fmt.Sprintf("%s %s", info.name, in.Rd)
	case layRegImm, layRegImm64:
		return fmt.Sprintf("%s %s, %d", info.name, in.Rd, in.Imm)
	case layRegDisp:
		if in.Op.isStore() {
			return fmt.Sprintf("%s [%s%+d], %s", info.name, in.Rd, in.Disp, in.Rs)
		}
		return fmt.Sprintf("%s %s, [%s%+d]", info.name, in.Rd, in.Rs, in.Disp)
	case layRegCC:
		return fmt.Sprintf("%s %s, %s", info.name, in.Rd, in.CC)
	case layRel32, layRel8:
		return fmt.Sprintf("%s %+d", info.name, in.Rel)
	case layCCRel32, layCCRel8:
		return fmt.Sprintf("%s %s, %+d", info.name, in.CC, in.Rel)
	case layImm16:
		return fmt.Sprintf("%s %d", info.name, in.Imm)
	}
	return info.name
}

// ParseInsn parses one instruction written as String writes it: the
// mnemonic, then the operands its layout takes, separated by commas. It
// also reads the forms hand-written assembly uses: hex, unsigned and
// character ('a') immediates, and a memory operand without a
// displacement ([r1]). A value must fit its field as a signed or an
// unsigned number, and is stored as Decode would read it back.
func ParseInsn(text string) (Insn, error) {
	text = strings.TrimSpace(text)
	mn, rest := text, ""
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		mn, rest = text[:i], strings.TrimSpace(text[i+1:])
	}
	op, ok := LookupOp(mn)
	if !ok {
		return Insn{}, fmt.Errorf("isa: unknown mnemonic %q", mn)
	}
	var a []string
	if rest != "" {
		a = strings.Split(rest, ",")
		for i := range a {
			a[i] = strings.TrimSpace(a[i])
		}
	}
	lay := opInfos[op].layout
	if want := layoutOperands[lay]; len(a) != want {
		return Insn{}, fmt.Errorf("isa: %s takes %d operand(s), got %d", mn, want, len(a))
	}
	var p operands
	in := Insn{Op: op, Len: op.Len()}
	switch lay {
	case layRegs:
		in.Rd, in.Rs = p.reg(a[0]), p.reg(a[1])
	case layReg:
		in.Rd = p.reg(a[0])
	case layRegImm:
		in.Rd, in.Imm = p.reg(a[0]), p.value(a[1], 32)
	case layRegImm64:
		in.Rd, in.Imm = p.reg(a[0]), p.value(a[1], 64)
	case layRegDisp:
		if op.isStore() {
			in.Rd, in.Disp = p.mem(a[0])
			in.Rs = p.reg(a[1])
		} else {
			in.Rd = p.reg(a[0])
			in.Rs, in.Disp = p.mem(a[1])
		}
	case layRegCC:
		in.Rd, in.CC = p.reg(a[0]), p.cc(a[1])
	case layRel32:
		in.Rel = int32(p.value(a[0], 32))
	case layRel8:
		in.Rel = int32(p.value(a[0], 8))
	case layCCRel32:
		in.CC, in.Rel = p.cc(a[0]), int32(p.value(a[1], 32))
	case layCCRel8:
		in.CC, in.Rel = p.cc(a[0]), int32(p.value(a[1], 8))
	case layImm16:
		in.Imm = p.value(a[0], 16) & 0xffff // Decode zero-extends imm16
	}
	if p.err != nil {
		return Insn{}, fmt.Errorf("isa: %s: %w", mn, p.err)
	}
	return in, nil
}

// operands parses operand text, keeping the first error.
type operands struct{ err error }

func (p *operands) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *operands) reg(s string) Reg {
	for r, name := range regNames {
		if s == name {
			return Reg(r)
		}
	}
	p.fail("bad register %q", s)
	return 0
}

func (p *operands) cc(s string) CC {
	for c, name := range ccNames {
		if s == name {
			return CC(c)
		}
	}
	p.fail("bad condition %q", s)
	return 0
}

// mem parses [reg], [reg+disp] or [reg-disp].
func (p *operands) mem(s string) (Reg, int32) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		p.fail("bad memory operand %q", s)
		return 0, 0
	}
	inner := s[1 : len(s)-1]
	j := strings.IndexAny(inner, "+-")
	if j < 0 {
		return p.reg(strings.TrimSpace(inner)), 0
	}
	return p.reg(strings.TrimSpace(inner[:j])), int32(p.value(strings.TrimSpace(inner[j:]), 32))
}

// value parses s as the value of a bits-wide field: a number that fits
// the field as a signed or an unsigned number, or a character literal.
// The result is sign-extended from bits, as Decode reads the field.
func (p *operands) value(s string, bits uint) int64 {
	var v int64
	var err error
	if len(s) == 3 && s[0] == '\'' && s[2] == '\'' {
		v = int64(s[1])
	} else if v, err = strconv.ParseInt(s, 0, 64); err != nil {
		// Past int64, a number fits only a 64-bit field, as unsigned.
		var u uint64
		if u, err = strconv.ParseUint(s, 0, 64); err == nil && bits < 64 {
			err = strconv.ErrRange
		}
		v = int64(u)
	}
	if err == nil && bits < 64 && (v < -1<<(bits-1) || v >= 1<<bits) {
		err = strconv.ErrRange
	}
	switch {
	case errors.Is(err, strconv.ErrRange):
		p.fail("%s does not fit in %d bits", s, bits)
	case err != nil:
		p.fail("bad immediate %q", s)
	}
	return v << (64 - bits) >> (64 - bits)
}

// Disasm disassembles the instruction at code[off], returning its textual
// form and length. Addresses in the rendering are relative to base+off.
func Disasm(code []byte, off int, base uint32) (text string, length int, err error) {
	in, err := Decode(code, off)
	if err != nil {
		return "", 0, err
	}
	if _, _, ok := in.RelInfo(); ok {
		return fmt.Sprintf("%s -> %#x", in.Op.Name(), in.Target(base+uint32(off))), in.Len, nil
	}
	return in.String(), in.Len, nil
}
