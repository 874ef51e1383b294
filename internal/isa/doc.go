// Package isa defines SIM32, the synthetic instruction set executed by the
// simulated kernel and targeted by the MiniC compiler.
//
// SIM32 is not x86, but it is constructed to share the x86 properties that
// the Ksplice algorithms depend on:
//
//   - Variable-length instructions (1 to 10 bytes), so matching code
//     byte-by-byte requires real instruction-length knowledge.
//   - PC-relative control transfer in two widths: a short form with an
//     8-bit displacement (JMPS/JCCS) and a near form with a 32-bit
//     displacement (JMP/JCC/CALL). An assembler may legally pick either
//     form for the same source construct, so two correct compilations of
//     one function can differ in both length and bytes.
//   - Relative displacements are measured from the end of the transfer
//     instruction, which is why 32-bit PC-relative relocations carry the
//     conventional addend of -4 (the displacement field sits 4 bytes
//     before the next instruction).
//   - Multi-byte no-op sequences (NOP .. NOP4) that assemblers insert for
//     alignment and that a matcher must recognize and skip.
//
// Registers are 64 bits wide. R0 holds return values, R6 is the frame
// pointer and R7 the stack pointer. 32-bit arithmetic instructions operate
// on the low 32 bits and sign-extend their result, mirroring an ILP32 C
// implementation with 64-bit "long".
//
// The package provides exactly the two services that run-pre matching is
// said to need in section 4.3 of the paper: recognition of no-op sequences
// (NopLen) and basic instruction-set facts — instruction lengths and the
// set of PC-relative instructions (Decode and Insn.RelInfo) — as obtained
// from a disassembler (Disasm).
//
// One table, opInfos, describes every opcode: its mnemonic, its operand
// layout (and so its length) and its branch class. Its four readers are
// inverse pairs over that layout: Decode and Encode between bytes and
// Insn, String and ParseInsn between Insn and assembly text. The
// compiler, the assembler and branch relaxation encode through them and
// restate no layout of their own.
package isa
