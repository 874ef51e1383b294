package isa

import "fmt"

// Reg identifies one of the eight 64-bit general registers.
type Reg byte

// Register assignments. R0..R5 are general purpose; FP and SP have fixed
// roles in the calling convention.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	FP // frame pointer (R6)
	SP // stack pointer (R7)

	NumRegs = 8
)

var regNames = [NumRegs]string{"r0", "r1", "r2", "r3", "r4", "r5", "fp", "sp"}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", byte(r))
}

// CC is a condition code tested by JCC/JCCS/SETCC against the flags set by
// the most recent CMP-family instruction.
type CC byte

// Condition codes. The L*/G* forms are signed, the U* forms unsigned.
const (
	CCEQ CC = iota
	CCNE
	CCLT
	CCLE
	CCGT
	CCGE
	CCULT
	CCULE
	CCUGT
	CCUGE

	NumCC = 10
)

var ccNames = [NumCC]string{"eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge"}

func (c CC) String() string {
	if int(c) < len(ccNames) {
		return ccNames[c]
	}
	return fmt.Sprintf("cc?%d", byte(c))
}

// Negate returns the condition code testing the opposite relation.
func (c CC) Negate() CC {
	switch c {
	case CCEQ:
		return CCNE
	case CCNE:
		return CCEQ
	case CCLT:
		return CCGE
	case CCLE:
		return CCGT
	case CCGT:
		return CCLE
	case CCGE:
		return CCLT
	case CCULT:
		return CCUGE
	case CCULE:
		return CCUGT
	case CCUGT:
		return CCULE
	case CCUGE:
		return CCULT
	}
	return c
}

// Op is a SIM32 opcode byte.
type Op byte

// Opcode space. Lengths and operand layouts are given in the opInfo table.
const (
	// No-ops. NOP2..NOP4 carry 1..3 ignored payload bytes; assemblers use
	// them for alignment padding.
	OpNOP  Op = 0x00
	OpNOP2 Op = 0x01
	OpNOP3 Op = 0x02
	OpNOP4 Op = 0x03

	// Moves and address formation.
	OpMOVI   Op = 0x10 // rd <- sext(imm32)
	OpMOVI64 Op = 0x11 // rd <- imm64
	OpMOV    Op = 0x12 // rd <- rs
	OpLEA    Op = 0x13 // rd <- rs + sext(disp32)

	// Loads: rd <- mem[rs + sext(disp32)], with width and extension.
	OpLD8U  Op = 0x20
	OpLD8S  Op = 0x21
	OpLD16U Op = 0x22
	OpLD16S Op = 0x23
	OpLD32U Op = 0x24
	OpLD32S Op = 0x25
	OpLD64  Op = 0x26

	// Stores: mem[rd + sext(disp32)] <- low bytes of rs.
	OpST8  Op = 0x28
	OpST16 Op = 0x29
	OpST32 Op = 0x2A
	OpST64 Op = 0x2B

	// 32-bit ALU, rd <- sext32(rd op rs). Shifts use rs mod 32.
	OpADD32  Op = 0x30
	OpSUB32  Op = 0x31
	OpMUL32  Op = 0x32
	OpDIV32S Op = 0x33
	OpDIV32U Op = 0x34
	OpMOD32S Op = 0x35
	OpMOD32U Op = 0x36
	OpAND32  Op = 0x37
	OpOR32   Op = 0x38
	OpXOR32  Op = 0x39
	OpSHL32  Op = 0x3A
	OpSHR32  Op = 0x3B
	OpSAR32  Op = 0x3C
	OpNEG32  Op = 0x3D // one-register
	OpNOT32  Op = 0x3E // one-register
	OpZEXT32 Op = 0x3F // one-register: rd <- rd & 0xffffffff

	// 64-bit ALU, rd <- rd op rs. Shifts use rs mod 64.
	OpADD64  Op = 0x40
	OpSUB64  Op = 0x41
	OpMUL64  Op = 0x42
	OpDIV64S Op = 0x43
	OpDIV64U Op = 0x44
	OpMOD64S Op = 0x45
	OpMOD64U Op = 0x46
	OpAND64  Op = 0x47
	OpOR64   Op = 0x48
	OpXOR64  Op = 0x49
	OpSHL64  Op = 0x4A
	OpSHR64  Op = 0x4B
	OpSAR64  Op = 0x4C
	OpNEG64  Op = 0x4D // one-register
	OpNOT64  Op = 0x4E // one-register

	// Immediate ALU and comparisons.
	OpADDI64 Op = 0x50 // rd <- rd + sext(imm32); used heavily for SP adjustment
	OpCMPI32 Op = 0x52 // flags <- cmp(sext32(ra), sext(imm32))
	OpCMPI64 Op = 0x53 // flags <- cmp(ra, sext(imm32))

	// Width conversions (one-register).
	OpSEXT8  Op = 0x54
	OpSEXT16 Op = 0x55
	OpSEXT32 Op = 0x56
	OpZEXT8  Op = 0x57
	OpZEXT16 Op = 0x5C

	// Comparison and flag materialization.
	OpCMP32 Op = 0x58 // flags <- cmp of low 32 bits (signed and unsigned)
	OpCMP64 Op = 0x59
	OpSETCC Op = 0x5A // rd <- flags satisfy cc ? 1 : 0

	// Control transfer. All displacements are relative to the address of
	// the next instruction.
	OpJMP   Op = 0x60 // near jump, rel32
	OpJMPS  Op = 0x61 // short jump, rel8
	OpJCC   Op = 0x62 // near conditional jump, cc + rel32
	OpJCCS  Op = 0x63 // short conditional jump, cc + rel8
	OpCALL  Op = 0x64 // near call, rel32; pushes 8-byte return address
	OpCALLR Op = 0x65 // indirect call through rs
	OpRET   Op = 0x66 // pop return address, jump
	OpJMPR  Op = 0x67 // indirect jump through rs

	// Stack. PUSH/POP move full 8-byte slots.
	OpPUSH Op = 0x70
	OpPOP  Op = 0x71

	// System.
	OpTRAP Op = 0x78 // call host/kernel service imm16
	OpHLT  Op = 0x79 // halt the executing thread
	OpBRK  Op = 0x7A // debug breakpoint
)

// operand layout kinds: which fields an instruction carries and where.
// Decode, Encode, String and ParseInsn each switch on the layout.
type layout byte

const (
	layNone     layout = iota // opcode only
	layPad1                   // opcode + 1 ignored byte
	layPad2                   // opcode + 2 ignored bytes
	layPad3                   // opcode + 3 ignored bytes
	layRegs                   // opcode + regbyte (rd low nibble, rs high nibble)
	layReg                    // opcode + regbyte (rd only)
	layRegImm                 // opcode + regbyte + imm32
	layRegImm64               // opcode + regbyte + imm64
	layRegDisp                // opcode + regbyte + disp32
	layRegCC                  // opcode + regbyte + cc byte
	layRel32                  // opcode + rel32
	layRel8                   // opcode + rel8
	layCCRel32                // opcode + cc byte + rel32
	layCCRel8                 // opcode + cc byte + rel8
	layImm16                  // opcode + imm16
)

var layoutLen = [...]int{
	layNone:     1,
	layPad1:     2,
	layPad2:     3,
	layPad3:     4,
	layRegs:     2,
	layReg:      2,
	layRegImm:   6,
	layRegImm64: 10,
	layRegDisp:  6,
	layRegCC:    3,
	layRel32:    5,
	layRel8:     2,
	layCCRel32:  6,
	layCCRel8:   3,
	layImm16:    3,
}

// layoutOperands is the number of assembly operands each layout takes.
var layoutOperands = [...]int{
	layRegs:     2,
	layReg:      1,
	layRegImm:   2,
	layRegImm64: 2,
	layRegDisp:  2,
	layRegCC:    2,
	layRel32:    1,
	layRel8:     1,
	layCCRel32:  2,
	layCCRel8:   2,
	layImm16:    1,
}

// BranchClass groups control-transfer opcodes whose short and near
// encodings are semantically interchangeable. Run-pre matching uses the
// class, not the opcode, when comparing run code against pre code.
type BranchClass byte

const (
	BranchNone BranchClass = iota
	BranchJmp              // JMP / JMPS
	BranchJcc              // JCC / JCCS (condition codes must also match)
	BranchCall             // CALL
)

type opInfo struct {
	name   string
	layout layout
	branch BranchClass
}

// opInfos is indexed directly by the opcode byte: instruction decode runs
// once per emulated instruction, and a table lookup keeps the hot path
// free of map hashing. An undefined opcode has an empty name.
var opInfos = [256]opInfo{
	OpNOP:  {"nop", layNone, BranchNone},
	OpNOP2: {"nop2", layPad1, BranchNone},
	OpNOP3: {"nop3", layPad2, BranchNone},
	OpNOP4: {"nop4", layPad3, BranchNone},

	OpMOVI:   {"movi", layRegImm, BranchNone},
	OpMOVI64: {"movi64", layRegImm64, BranchNone},
	OpMOV:    {"mov", layRegs, BranchNone},
	OpLEA:    {"lea", layRegDisp, BranchNone},

	OpLD8U:  {"ld8u", layRegDisp, BranchNone},
	OpLD8S:  {"ld8s", layRegDisp, BranchNone},
	OpLD16U: {"ld16u", layRegDisp, BranchNone},
	OpLD16S: {"ld16s", layRegDisp, BranchNone},
	OpLD32U: {"ld32u", layRegDisp, BranchNone},
	OpLD32S: {"ld32s", layRegDisp, BranchNone},
	OpLD64:  {"ld64", layRegDisp, BranchNone},

	OpST8:  {"st8", layRegDisp, BranchNone},
	OpST16: {"st16", layRegDisp, BranchNone},
	OpST32: {"st32", layRegDisp, BranchNone},
	OpST64: {"st64", layRegDisp, BranchNone},

	OpADD32:  {"add32", layRegs, BranchNone},
	OpSUB32:  {"sub32", layRegs, BranchNone},
	OpMUL32:  {"mul32", layRegs, BranchNone},
	OpDIV32S: {"div32s", layRegs, BranchNone},
	OpDIV32U: {"div32u", layRegs, BranchNone},
	OpMOD32S: {"mod32s", layRegs, BranchNone},
	OpMOD32U: {"mod32u", layRegs, BranchNone},
	OpAND32:  {"and32", layRegs, BranchNone},
	OpOR32:   {"or32", layRegs, BranchNone},
	OpXOR32:  {"xor32", layRegs, BranchNone},
	OpSHL32:  {"shl32", layRegs, BranchNone},
	OpSHR32:  {"shr32", layRegs, BranchNone},
	OpSAR32:  {"sar32", layRegs, BranchNone},
	OpNEG32:  {"neg32", layReg, BranchNone},
	OpNOT32:  {"not32", layReg, BranchNone},
	OpZEXT32: {"zext32", layReg, BranchNone},

	OpADD64:  {"add64", layRegs, BranchNone},
	OpSUB64:  {"sub64", layRegs, BranchNone},
	OpMUL64:  {"mul64", layRegs, BranchNone},
	OpDIV64S: {"div64s", layRegs, BranchNone},
	OpDIV64U: {"div64u", layRegs, BranchNone},
	OpMOD64S: {"mod64s", layRegs, BranchNone},
	OpMOD64U: {"mod64u", layRegs, BranchNone},
	OpAND64:  {"and64", layRegs, BranchNone},
	OpOR64:   {"or64", layRegs, BranchNone},
	OpXOR64:  {"xor64", layRegs, BranchNone},
	OpSHL64:  {"shl64", layRegs, BranchNone},
	OpSHR64:  {"shr64", layRegs, BranchNone},
	OpSAR64:  {"sar64", layRegs, BranchNone},
	OpNEG64:  {"neg64", layReg, BranchNone},
	OpNOT64:  {"not64", layReg, BranchNone},

	OpADDI64: {"addi64", layRegImm, BranchNone},
	OpCMPI32: {"cmpi32", layRegImm, BranchNone},
	OpCMPI64: {"cmpi64", layRegImm, BranchNone},

	OpSEXT8:  {"sext8", layReg, BranchNone},
	OpSEXT16: {"sext16", layReg, BranchNone},
	OpSEXT32: {"sext32", layReg, BranchNone},
	OpZEXT8:  {"zext8", layReg, BranchNone},
	OpZEXT16: {"zext16", layReg, BranchNone},

	OpCMP32: {"cmp32", layRegs, BranchNone},
	OpCMP64: {"cmp64", layRegs, BranchNone},
	OpSETCC: {"setcc", layRegCC, BranchNone},

	OpJMP:   {"jmp", layRel32, BranchJmp},
	OpJMPS:  {"jmps", layRel8, BranchJmp},
	OpJCC:   {"jcc", layCCRel32, BranchJcc},
	OpJCCS:  {"jccs", layCCRel8, BranchJcc},
	OpCALL:  {"call", layRel32, BranchCall},
	OpCALLR: {"callr", layReg, BranchNone},
	OpRET:   {"ret", layNone, BranchNone},
	OpJMPR:  {"jmpr", layReg, BranchNone},

	OpPUSH: {"push", layReg, BranchNone},
	OpPOP:  {"pop", layReg, BranchNone},

	OpTRAP: {"trap", layImm16, BranchNone},
	OpHLT:  {"hlt", layNone, BranchNone},
	OpBRK:  {"brk", layNone, BranchNone},
}

// Valid reports whether op is a defined SIM32 opcode.
func (op Op) Valid() bool {
	return opInfos[op].name != ""
}

// LookupOp returns the opcode whose mnemonic is name, the inverse of
// Name for defined opcodes.
func LookupOp(name string) (Op, bool) {
	for op := range opInfos {
		if opInfos[op].name == name && name != "" {
			return Op(op), true
		}
	}
	return 0, false
}

// isStore reports whether op writes its register operand to memory,
// which puts the memory operand first in assembly text.
func (op Op) isStore() bool { return op >= OpST8 && op <= OpST64 }

// Name returns the mnemonic for op, or a hex placeholder if undefined.
func (op Op) Name() string {
	if in := &opInfos[op]; in.name != "" {
		return in.name
	}
	return fmt.Sprintf("op?%02x", byte(op))
}

// Len returns the encoded length in bytes of an instruction with opcode
// op, or 0 if op is not a defined opcode. SIM32 instruction length is
// determined entirely by the opcode byte.
func (op Op) Len() int {
	in := &opInfos[op]
	if in.name == "" {
		return 0
	}
	return layoutLen[in.layout]
}

// Branch returns the branch equivalence class of op.
func (op Op) Branch() BranchClass {
	return opInfos[op].branch
}

// TrampolineLen is the number of bytes a Ksplice jump trampoline occupies:
// one near JMP rel32. Every MiniC function prologue is at least this long,
// so overwriting an entry point is always safe.
const TrampolineLen = 5
