// Package vm executes SIM32 code over a flat byte-addressed memory. It
// provides the CPU model for the simulated kernel: register state per
// thread, an interpreter that runs a thread up to a budget of
// instructions per call, and a trap mechanism through which kernel
// services (console, allocator, scheduler, syscall dispatch) are reached.
//
// The interpreter is deliberately strict: undefined opcodes, out-of-range
// memory accesses, division by zero and unserved traps all stop the
// offending thread with a descriptive fault rather than proceeding
// silently. Faults of this kind are how the evaluation detects that an
// exploit or a bad splice actually corrupted execution.
package vm

import (
	"fmt"

	"gosplice/internal/isa"
)

// Fault describes an execution error, recording the faulting instruction
// pointer.
type Fault struct {
	IP     uint32
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault at %#x: %s", f.IP, f.Reason)
}

// Thread is one hardware execution context: the register file and flags of
// a single logical CPU as seen by one kernel thread.
type Thread struct {
	R  [isa.NumRegs]uint64
	IP uint32

	// Comparison flags, set by the CMP family.
	FlagEQ  bool // operands equal
	FlagLTS bool // a < b signed
	FlagLTU bool // a < b unsigned

	// Halted is set by HLT; a halted thread refuses to step.
	Halted bool

	// Steps counts executed instructions, for accounting and quiescence
	// heuristics.
	Steps uint64
}

// SP and FP accessors for readability at call sites.
func (t *Thread) SP() uint32     { return uint32(t.R[isa.SP]) }
func (t *Thread) FP() uint32     { return uint32(t.R[isa.FP]) }
func (t *Thread) SetSP(v uint32) { t.R[isa.SP] = uint64(v) }
func (t *Thread) SetFP(v uint32) { t.R[isa.FP] = uint64(v) }

// Traps serves TRAP instructions: the machine's one entry point into the
// host. Trap runs after IP has advanced past the trap, so it may redirect
// execution by assigning IP (this is how syscall dispatch enters kernel
// MiniC code). Returning an error faults the thread.
type Traps interface {
	Trap(num uint16, t *Thread) error
}

// Machine is paged physical memory plus the trap entry point shared by
// all threads. Scheduling lives above this package; Machine itself
// performs no synchronization.
type Machine struct {
	Mem *Memory
	// LowGuard makes addresses below it fault on access or execution,
	// emulating an unmapped page at NULL so pointer bugs trap instead of
	// silently reading memory.
	LowGuard uint32
	// Traps serves every TRAP; with none, every TRAP faults.
	Traps Traps
}

// New creates a machine with the given memory size.
func New(memSize int) *Machine {
	return &Machine{Mem: NewMemory(memSize)}
}

// Clone returns a machine sharing this one's memory copy-on-write. Traps
// is not carried over: it is bound to the owner of the original, and the
// clone's owner sets its own.
func (m *Machine) Clone() *Machine {
	return &Machine{Mem: m.Mem.Clone(), LowGuard: m.LowGuard}
}

func (m *Machine) fault(ip uint32, format string, args ...any) error {
	return &Fault{IP: ip, Reason: fmt.Sprintf(format, args...)}
}

func (m *Machine) check(ip, addr uint32, size int) error {
	if addr < m.LowGuard {
		return m.fault(ip, "memory access %#x+%d in guard page (null dereference)", addr, size)
	}
	if int64(addr)+int64(size) > int64(m.Mem.Len()) {
		return m.fault(ip, "memory access %#x+%d out of range", addr, size)
	}
	return nil
}

// Load reads size bytes (1, 2, 4 or 8) at addr as an unsigned value.
func (m *Machine) Load(ip, addr uint32, size int) (uint64, error) {
	if err := m.check(ip, addr, size); err != nil {
		return 0, err
	}
	switch size {
	case 1, 2, 4, 8:
		return m.Mem.LoadLE(addr, size), nil
	}
	return 0, m.fault(ip, "bad load size %d", size)
}

// Store writes the low size bytes of v at addr.
func (m *Machine) Store(ip, addr uint32, size int, v uint64) error {
	if err := m.check(ip, addr, size); err != nil {
		return err
	}
	switch size {
	case 1, 2, 4, 8:
		m.Mem.StoreLE(addr, size, v)
	default:
		return m.fault(ip, "bad store size %d", size)
	}
	return nil
}

// CondSatisfied evaluates cc against t's flags.
func CondSatisfied(t *Thread, cc isa.CC) bool {
	switch cc {
	case isa.CCEQ:
		return t.FlagEQ
	case isa.CCNE:
		return !t.FlagEQ
	case isa.CCLT:
		return t.FlagLTS
	case isa.CCLE:
		return t.FlagLTS || t.FlagEQ
	case isa.CCGT:
		return !t.FlagLTS && !t.FlagEQ
	case isa.CCGE:
		return !t.FlagLTS
	case isa.CCULT:
		return t.FlagLTU
	case isa.CCULE:
		return t.FlagLTU || t.FlagEQ
	case isa.CCUGT:
		return !t.FlagLTU && !t.FlagEQ
	case isa.CCUGE:
		return !t.FlagLTU
	}
	return false
}

func sext32(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }

func (t *Thread) cmp64(a, b uint64) {
	t.FlagEQ = a == b
	t.FlagLTS = int64(a) < int64(b)
	t.FlagLTU = a < b
}

func (t *Thread) cmp32(a, b uint64) {
	x, y := uint32(a), uint32(b)
	t.FlagEQ = x == y
	t.FlagLTS = int32(x) < int32(y)
	t.FlagLTU = x < y
}

// push and pop move the 8-byte stack slot at SP, in place when it is a
// Memory.stackSlot — every slot of a well-behaved stack — and through
// Store or Load otherwise.
func (t *Thread) push(m *Machine, ip uint32, v uint64) error {
	sp := t.SP() - 8
	if m.Mem.stackSlot(sp, m.LowGuard) {
		m.Mem.store64(sp, v)
	} else if err := m.Store(ip, sp, 8, v); err != nil {
		return err
	}
	t.SetSP(sp)
	return nil
}

func (t *Thread) pop(m *Machine, ip uint32) (uint64, error) {
	sp := t.SP()
	var v uint64
	if m.Mem.stackSlot(sp, m.LowGuard) {
		v = m.Mem.load64(sp)
	} else {
		var err error
		if v, err = m.Load(ip, sp, 8); err != nil {
			return 0, err
		}
	}
	t.SetSP(sp + 8)
	return v, nil
}

// Step executes one instruction on t: Run with a budget of one, except
// that a halted thread faults instead of running nothing.
func (m *Machine) Step(t *Thread) error {
	if t.Halted {
		return m.fault(t.IP, "thread halted")
	}
	_, err := m.Run(t, 1)
	return err
}

// Run is the interpreter: it executes up to budget instructions of t and
// returns how many completed. It returns early after a TRAP or an HLT,
// which count as completed, and at a fault, which does not and leaves
// t's IP at the faulting instruction. A TRAP handler and HLT are the only
// places a thread's scheduling state changes, so a scheduler that checks
// it after each call sees every change at the instruction that made it.
// A halted thread runs nothing. t.Steps counts every instruction that
// decoded, a faulting one included.
func (m *Machine) Run(t *Thread, budget int) (int, error) {
	if t.Halted {
		return 0, nil
	}
	mem := m.Mem
	for n := 0; n < budget; n++ {
		ip := t.IP
		if ip < m.LowGuard {
			return n, m.fault(ip, "execution in guard page (jump through null pointer)")
		}
		// in points into a decode cache entry. Stores never rewrite an
		// entry, but a fill can: see the TRAP case.
		in := mem.cached(int(ip))
		if in == nil {
			var err error
			if in, err = mem.fill(int(ip)); err != nil {
				return n, m.fault(ip, "decode: %v", err)
			}
		}
		next := ip + uint32(in.Len)
		t.Steps++

		rd, rs := in.Rd, in.Rs
		switch in.Op {
		case isa.OpNOP, isa.OpNOP2, isa.OpNOP3, isa.OpNOP4, isa.OpBRK:

		case isa.OpMOVI, isa.OpMOVI64:
			t.R[rd] = uint64(in.Imm)
		case isa.OpMOV:
			t.R[rd] = t.R[rs]
		case isa.OpLEA:
			t.R[rd] = uint64(uint32(t.R[rs]) + uint32(in.Disp))

		case isa.OpLD8U, isa.OpLD8S, isa.OpLD16U, isa.OpLD16S, isa.OpLD32U, isa.OpLD32S, isa.OpLD64:
			addr := uint32(t.R[rs]) + uint32(in.Disp)
			var v uint64
			var err error
			switch in.Op {
			case isa.OpLD8U, isa.OpLD8S:
				v, err = m.Load(ip, addr, 1)
				if err == nil && in.Op == isa.OpLD8S {
					v = uint64(int64(int8(v)))
				}
			case isa.OpLD16U, isa.OpLD16S:
				v, err = m.Load(ip, addr, 2)
				if err == nil && in.Op == isa.OpLD16S {
					v = uint64(int64(int16(v)))
				}
			case isa.OpLD32U, isa.OpLD32S:
				v, err = m.Load(ip, addr, 4)
				if err == nil && in.Op == isa.OpLD32S {
					v = sext32(v)
				}
			case isa.OpLD64:
				v, err = m.Load(ip, addr, 8)
			}
			if err != nil {
				return n, err
			}
			t.R[rd] = v

		case isa.OpST8, isa.OpST16, isa.OpST32, isa.OpST64:
			addr := uint32(t.R[rd]) + uint32(in.Disp)
			// ST8..ST64 are consecutive opcodes, so the width is 1<<(op-ST8).
			size := 1 << (in.Op - isa.OpST8)
			if err := m.Store(ip, addr, size, t.R[rs]); err != nil {
				return n, err
			}

		case isa.OpADD32:
			t.R[rd] = sext32(t.R[rd] + t.R[rs])
		case isa.OpSUB32:
			t.R[rd] = sext32(t.R[rd] - t.R[rs])
		case isa.OpMUL32:
			t.R[rd] = sext32(uint64(uint32(t.R[rd]) * uint32(t.R[rs])))
		case isa.OpDIV32S, isa.OpDIV32U, isa.OpMOD32S, isa.OpMOD32U:
			if uint32(t.R[rs]) == 0 {
				return n, m.fault(ip, "division by zero")
			}
			a, b := uint32(t.R[rd]), uint32(t.R[rs])
			switch in.Op {
			case isa.OpDIV32S:
				if int32(a) == -1<<31 && int32(b) == -1 {
					return n, m.fault(ip, "division overflow")
				}
				t.R[rd] = uint64(int64(int32(a) / int32(b)))
			case isa.OpDIV32U:
				t.R[rd] = sext32(uint64(a / b))
			case isa.OpMOD32S:
				if int32(a) == -1<<31 && int32(b) == -1 {
					return n, m.fault(ip, "division overflow")
				}
				t.R[rd] = uint64(int64(int32(a) % int32(b)))
			case isa.OpMOD32U:
				t.R[rd] = sext32(uint64(a % b))
			}
		case isa.OpAND32:
			t.R[rd] = sext32(t.R[rd] & t.R[rs])
		case isa.OpOR32:
			t.R[rd] = sext32(t.R[rd] | t.R[rs])
		case isa.OpXOR32:
			t.R[rd] = sext32(t.R[rd] ^ t.R[rs])
		case isa.OpSHL32:
			t.R[rd] = sext32(uint64(uint32(t.R[rd]) << (t.R[rs] & 31)))
		case isa.OpSHR32:
			t.R[rd] = sext32(uint64(uint32(t.R[rd]) >> (t.R[rs] & 31)))
		case isa.OpSAR32:
			t.R[rd] = uint64(int64(int32(t.R[rd]) >> (t.R[rs] & 31)))
		case isa.OpNEG32:
			t.R[rd] = sext32(-t.R[rd])
		case isa.OpNOT32:
			t.R[rd] = sext32(^t.R[rd])
		case isa.OpZEXT32:
			t.R[rd] = uint64(uint32(t.R[rd]))

		case isa.OpADD64:
			t.R[rd] += t.R[rs]
		case isa.OpSUB64:
			t.R[rd] -= t.R[rs]
		case isa.OpMUL64:
			t.R[rd] *= t.R[rs]
		case isa.OpDIV64S, isa.OpDIV64U, isa.OpMOD64S, isa.OpMOD64U:
			if t.R[rs] == 0 {
				return n, m.fault(ip, "division by zero")
			}
			a, b := t.R[rd], t.R[rs]
			switch in.Op {
			case isa.OpDIV64S:
				if int64(a) == -1<<63 && int64(b) == -1 {
					return n, m.fault(ip, "division overflow")
				}
				t.R[rd] = uint64(int64(a) / int64(b))
			case isa.OpDIV64U:
				t.R[rd] = a / b
			case isa.OpMOD64S:
				if int64(a) == -1<<63 && int64(b) == -1 {
					return n, m.fault(ip, "division overflow")
				}
				t.R[rd] = uint64(int64(a) % int64(b))
			case isa.OpMOD64U:
				t.R[rd] = a % b
			}
		case isa.OpAND64:
			t.R[rd] &= t.R[rs]
		case isa.OpOR64:
			t.R[rd] |= t.R[rs]
		case isa.OpXOR64:
			t.R[rd] ^= t.R[rs]
		case isa.OpSHL64:
			t.R[rd] <<= t.R[rs] & 63
		case isa.OpSHR64:
			t.R[rd] >>= t.R[rs] & 63
		case isa.OpSAR64:
			t.R[rd] = uint64(int64(t.R[rd]) >> (t.R[rs] & 63))
		case isa.OpNEG64:
			t.R[rd] = -t.R[rd]
		case isa.OpNOT64:
			t.R[rd] = ^t.R[rd]

		case isa.OpADDI64:
			t.R[rd] += uint64(in.Imm)
		case isa.OpCMPI32:
			t.cmp32(t.R[rd], uint64(in.Imm))
		case isa.OpCMPI64:
			t.cmp64(t.R[rd], uint64(in.Imm))

		case isa.OpSEXT8:
			t.R[rd] = uint64(int64(int8(t.R[rd])))
		case isa.OpSEXT16:
			t.R[rd] = uint64(int64(int16(t.R[rd])))
		case isa.OpSEXT32:
			t.R[rd] = sext32(t.R[rd])
		case isa.OpZEXT8:
			t.R[rd] = uint64(uint8(t.R[rd]))
		case isa.OpZEXT16:
			t.R[rd] = uint64(uint16(t.R[rd]))

		case isa.OpCMP32:
			t.cmp32(t.R[rd], t.R[rs])
		case isa.OpCMP64:
			t.cmp64(t.R[rd], t.R[rs])
		case isa.OpSETCC:
			if CondSatisfied(t, in.CC) {
				t.R[rd] = 1
			} else {
				t.R[rd] = 0
			}

		// Branch targets are next + Rel, what in.Target(ip) computes
		// after checking that the opcode has a PC-relative operand, which
		// these have by definition.
		case isa.OpJMP, isa.OpJMPS:
			next += uint32(in.Rel)
		case isa.OpJCC, isa.OpJCCS:
			if CondSatisfied(t, in.CC) {
				next += uint32(in.Rel)
			}
		case isa.OpCALL:
			if err := t.push(m, ip, uint64(next)); err != nil {
				return n, err
			}
			next += uint32(in.Rel)
		case isa.OpCALLR:
			if err := t.push(m, ip, uint64(next)); err != nil {
				return n, err
			}
			next = uint32(t.R[rd])
		case isa.OpRET:
			ra, err := t.pop(m, ip)
			if err != nil {
				return n, err
			}
			next = uint32(ra)
		case isa.OpJMPR:
			next = uint32(t.R[rd])

		case isa.OpPUSH:
			if err := t.push(m, ip, t.R[rd]); err != nil {
				return n, err
			}
		case isa.OpPOP:
			v, err := t.pop(m, ip)
			if err != nil {
				return n, err
			}
			t.R[rd] = v

		case isa.OpTRAP:
			// A handler may run guest code, whose decodes can refill the
			// cache slot in points at: copy the number now, never read in
			// after Trap.
			num := in.Imm
			if m.Traps == nil {
				return n, m.fault(ip, "trap %d: machine serves no traps", num)
			}
			t.IP = next
			if err := m.Traps.Trap(uint16(num), t); err != nil {
				t.IP = ip // a fault leaves t at the faulting instruction
				return n, m.fault(ip, "trap %d: %v", num, err)
			}
			return n + 1, nil

		case isa.OpHLT:
			t.Halted = true
			t.IP = next
			return n + 1, nil

		default:
			return n, m.fault(ip, "unimplemented opcode %s", in.Op.Name())
		}

		t.IP = next
	}
	return budget, nil
}
