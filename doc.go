// Package gosplice is a from-scratch reproduction of "Ksplice: Automatic
// Rebootless Kernel Updates" (Arnold & Kaashoek, EuroSys 2009): a hot
// update engine that turns traditional unified-diff security patches into
// rebootless updates of a running (simulated) kernel by working at the
// object code layer — pre-post differencing to generate replacement code,
// run-pre matching to resolve symbols and verify safety, and stop_machine
// trampoline splicing to make the change atomic.
//
// The root package carries only the repository-level benchmark harness
// (bench_test.go), which regenerates every table and figure of the
// paper's evaluation; the implementation lives under internal/:
//
//	internal/isa      SIM32 instruction set and disassembler
//	internal/vm       SIM32 interpreter
//	internal/obj      SOF object format, relocations, linker
//	internal/minic    MiniC front end (lexer/preprocessor/parser/checker)
//	internal/codegen  MiniC compiler and mini assembler
//	internal/diffutil unified diffs: generate (Myers), parse, apply
//	internal/srctree  source trees and deterministic builds
//	internal/kernel   the simulated kernel: threads, scheduler, stop_machine,
//	                  kallsyms, modules, syscalls, kmalloc
//	internal/core     the Ksplice engine (the paper's contribution)
//	internal/cvedb    the 64-entry synthetic vulnerability corpus
//	internal/eval     the evaluation harness (section 6)
//	internal/simstate machine persistence for the CLI tools
package gosplice
