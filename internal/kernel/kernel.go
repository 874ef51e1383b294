// Package kernel implements the simulated operating system kernel that
// Ksplice updates: a SIM32 machine running a kernel image built from a
// MiniC source tree, with kernel threads, a stop_machine facility,
// kallsyms, loadable modules, a syscall table, and a kmalloc heap.
//
// Guest code runs only on the goroutine of a caller that asks for it:
// RunSteps, a deterministic round robin in Quantum slices, is the one
// scheduler, and the Call helpers step through it or through a single
// thread. No thread moves between such calls, so StopMachine needs no
// rendezvous: it times its callback as the pause, and the same kernel
// state and step budgets always replay the same schedule.
//
// The kernel's executable behaviour lives entirely in guest MiniC code;
// the host side supplies only the machine services a real kernel gets
// from hardware and its lowest-level assembly: trap dispatch, the
// allocator, console output, and thread bookkeeping. Security
// vulnerabilities and their fixes are therefore properties of guest code,
// and hot updates change guest behaviour with no host involvement —
// the property the whole reproduction turns on.
package kernel

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/isa"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
	"gosplice/internal/vm"
)

// Memory map.
const (
	// LowGuard: addresses below this fault (NULL page).
	LowGuard = 0x1000
	// ExitStub: a TRAP exit_thread instruction; every spawned thread's
	// initial return address points here.
	ExitStub = 0x2000
	// KernelBase is the load address of the kernel image.
	KernelBase = 0x100000
	// HeapBase..HeapEnd is the kmalloc arena. Modules load between the
	// kernel image and HeapBase.
	HeapBase = 0x800000
	HeapEnd  = 0xC00000
	// StackRegion: per-thread stacks are carved downward from the top of
	// memory; each stack is StackSize bytes.
	StackSize = 64 << 10

	// DefaultMemSize is the machine size BootImage uses for a zero size.
	DefaultMemSize = 16 << 20
)

// Trap numbers: the kernel/host ABI.
const (
	TrapSyscall   = 0  // r0=nr, args on stack; dispatches via sys_call_table
	TrapPutchar   = 1  // r0=char
	TrapPuts      = 2  // r0=NUL-terminated string address
	TrapKmalloc   = 3  // r0=size -> r0=addr or 0
	TrapKfree     = 4  // r0=addr
	TrapYield     = 5  // end the current quantum
	TrapExit      = 6  // r0=code; terminates the current thread
	TrapGetpid    = 7  // -> r0
	TrapGetuid    = 8  // -> r0
	TrapSetuid    = 9  // r0=uid
	TrapShadowGet = 12 // r0=obj, r1=key -> r0=shadow addr or 0
	TrapShadowAtt = 13 // r0=obj, r1=key, r2=size -> r0=shadow addr (alloc)
	TrapShadowDet = 14 // r0=obj, r1=key
	TrapReport    = 16 // r0=value; appended to the host-visible report log
)

// ENOSYS is the syscall-dispatch failure value.
const ENOSYS = -38

// errVal widens a negative errno to the canonical 64-bit register form.
func errVal(e int32) uint64 { return uint64(int64(e)) }

// Task is one kernel thread.
type Task struct {
	ID   int
	Name string
	Th   vm.Thread
	// Stack extent [StackLo, StackHi).
	StackLo, StackHi uint32
	// UID is the task's credential, manipulated by guest code through
	// the getuid/setuid traps.
	UID int

	Exited   bool
	ExitCode int64
	Fault    error

	yield bool
}

// Runnable reports whether the task can be scheduled.
func (t *Task) Runnable() bool { return !t.Exited && t.Fault == nil && !t.Th.Halted }

// Module is a loaded kernel module.
type Module struct {
	Name  string
	Image *obj.Image
	Files []*obj.File
	Base  uint32
	Size  uint32

	// syms indexes Image's symbols; SymTab.AddModule builds it.
	syms *symIndex
}

type shadowKey struct{ obj, key uint32 }

// Kernel is a booted simulated kernel.
type Kernel struct {
	M       *vm.Machine
	Image   *obj.Image
	Syms    *SymTab
	Build   *srctree.BuildResult
	Version string

	// mu is the machine lock: all memory access and instruction stepping
	// happens under it.
	mu sync.Mutex

	tasks    []*Task
	taskOf   map[*vm.Thread]*Task
	nextTID  int
	stackCur uint32
	// freeStacks recycles the stack regions of reaped tasks.
	freeStacks []uint32

	heap         *heap
	moduleCursor uint32
	shadows      map[shadowKey]uint32

	console bytes.Buffer
	reports []int64

	totalSteps uint64
	bootedAt   time.Time
}

// StopMachine statistics are process-wide: every kernel counts into the
// same families, which exist from package init, so a fresh process
// scrapes them at zero. The per-update record is core.Applied's Pause
// and Attempts.
var (
	stopMachines = telemetry.Default().Counter("gosplice_kernel_stop_machine_total")
	stopPauses   = telemetry.Default().Histogram("gosplice_kernel_stop_machine_pause_seconds", nil)
)

func init() {
	d := telemetry.Default()
	d.Help("gosplice_kernel_stop_machine_total", "stop_machine invocations, summed across all kernel instances")
	d.Help("gosplice_kernel_stop_machine_pause_seconds", "stop_machine pause durations, summed across all kernel instances")
}

// Boot builds the tree with codegen.KernelBuild() — whole-.text units,
// branch relaxation, inlining: a distributor's kernel — and links the
// image, both through the artifact store, then starts a kernel with
// BootImage. A second Boot of the same tree content compiles and links
// nothing. If the tree defines a unique global function "kinit", it
// runs to completion on a bootstrap thread before Boot returns.
func Boot(t *srctree.Tree) (*Kernel, error) {
	br, err := srctree.BuildCached(t, codegen.KernelBuild())
	if err != nil {
		return nil, err
	}
	im, err := srctree.LinkKernelCached(br, KernelBase)
	if err != nil {
		return nil, err
	}
	return BootImage(br, im, 0)
}

// BootImage boots from a build result and an image already linked at
// KernelBase. The image is only read (its bytes are copied into machine
// memory), so one linked image can boot any number of kernels — the
// evaluation pipeline links each release once and boots per-patch
// instances from the cached image.
func BootImage(br *srctree.BuildResult, im *obj.Image, memSize int) (*Kernel, error) {
	if memSize == 0 {
		memSize = DefaultMemSize
	}
	if im.End() >= HeapBase {
		return nil, fmt.Errorf("kernel: image end %#x collides with heap base %#x", im.End(), HeapBase)
	}
	k := &Kernel{
		M:        vm.New(memSize),
		Image:    im,
		Syms:     NewSymTab(im),
		Build:    br,
		Version:  br.Tree.Version(),
		taskOf:   map[*vm.Thread]*Task{},
		shadows:  map[shadowKey]uint32{},
		stackCur: uint32(memSize),
		bootedAt: time.Now(),
	}
	k.M.LowGuard = LowGuard
	k.M.Traps = k
	k.M.Mem.WriteAt(KernelBase, im.Bytes)
	// Exit stub: TRAP exit; HLT as a backstop.
	stub := isa.Encode(nil, isa.Insn{Op: isa.OpTRAP, Imm: TrapExit})
	k.M.Mem.WriteAt(ExitStub, isa.Encode(stub, isa.Insn{Op: isa.OpHLT}))

	k.moduleCursor = (im.End() + 0xFFF) &^ 0xFFF
	k.heap = newHeap(HeapBase, HeapEnd)

	if syms := k.Syms.Lookup("kinit"); len(syms) == 1 {
		if _, err := k.Call("kinit"); err != nil {
			return nil, fmt.Errorf("kernel: kinit failed: %w", err)
		}
	}
	return k, nil
}

// Clone snapshots a quiescent kernel into an independent instance: machine
// memory, the heap, shadow bindings, the module list and counters are
// all copied, so the clone and the original never share mutable state.
// The boot image's kallsyms and the loaded modules themselves are never
// written, so the clone shares them. The kernel must have no live tasks
// — the snapshot is taken between instructions, like booting a second
// machine from a memory image. The evaluation pipeline boots one template kernel per
// release and clones it per patch, which skips the build, link and
// kinit cost of a fresh boot.
func (k *Kernel) Clone() (*Kernel, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if n := len(k.tasks); n > 0 {
		return nil, fmt.Errorf("kernel: cannot clone with %d live tasks", n)
	}
	n := &Kernel{
		M:            k.M.Clone(),
		Image:        k.Image,
		Syms:         &SymTab{base: k.Syms.base, mods: slices.Clone(k.Syms.mods)},
		Build:        k.Build,
		Version:      k.Version,
		taskOf:       map[*vm.Thread]*Task{},
		nextTID:      k.nextTID,
		stackCur:     k.stackCur,
		freeStacks:   append([]uint32(nil), k.freeStacks...),
		heap:         k.heap.clone(),
		moduleCursor: k.moduleCursor,
		shadows:      make(map[shadowKey]uint32, len(k.shadows)),
		totalSteps:   k.totalSteps,
		bootedAt:     time.Now(),
	}
	for key, addr := range k.shadows {
		n.shadows[key] = addr
	}
	n.console.Write(k.console.Bytes())
	n.reports = append([]int64(nil), k.reports...)
	// n.M shares k's memory copy-on-write: both sides fault pages private
	// on write, so neither can observe the other's mutations.
	n.M.Traps = n
	return n, nil
}

// Trap serves the host side of the trap ABI; it is the kernel's
// vm.Traps. It runs while the calling CPU holds the machine lock and must
// not re-acquire it.
func (k *Kernel) Trap(num uint16, t *vm.Thread) error {
	r0 := t.R[isa.R0]
	switch num {
	case TrapSyscall:
		return k.trapSyscall(t)
	case TrapPutchar:
		k.console.WriteByte(byte(r0))
	case TrapPuts:
		s, err := k.readCString(uint32(r0), 4096)
		if err != nil {
			return err
		}
		k.console.WriteString(s)
	case TrapKmalloc:
		t.R[isa.R0] = uint64(k.kzalloc(r0))
	case TrapKfree:
		if addr := uint32(r0); addr != 0 {
			return k.heap.freeBlock(addr)
		}
	case TrapYield:
		if task := k.taskOf[t]; task != nil {
			task.yield = true
		}
	case TrapExit:
		t.Halted = true
		if task := k.taskOf[t]; task != nil {
			task.Exited = true
			task.ExitCode = int64(r0)
		}
	case TrapGetpid:
		if task := k.taskOf[t]; task != nil {
			t.R[isa.R0] = uint64(task.ID)
		}
	case TrapGetuid:
		if task := k.taskOf[t]; task != nil {
			t.R[isa.R0] = uint64(uint32(task.UID))
		}
	case TrapSetuid:
		if task := k.taskOf[t]; task != nil {
			task.UID = int(int32(r0))
		}
	case TrapShadowGet:
		t.R[isa.R0] = uint64(k.shadows[shadowKey{uint32(r0), uint32(t.R[isa.R1])}])
	case TrapShadowAtt:
		key := shadowKey{uint32(r0), uint32(t.R[isa.R1])}
		addr, ok := k.shadows[key]
		if !ok {
			if addr = k.kzalloc(t.R[isa.R2]); addr != 0 {
				k.shadows[key] = addr
			}
		}
		t.R[isa.R0] = uint64(addr)
	case TrapShadowDet:
		key := shadowKey{uint32(r0), uint32(t.R[isa.R1])}
		if addr, ok := k.shadows[key]; ok {
			delete(k.shadows, key)
			return k.heap.freeBlock(addr)
		}
	case TrapReport:
		k.reports = append(k.reports, int64(r0))
	default:
		return fmt.Errorf("no such trap")
	}
	return nil
}

// kzalloc allocates a zeroed block of size bytes, like kzalloc, so guest
// state stays deterministic. It returns 0 (NULL) when the heap cannot
// serve the request, and for a size that does not fit in 32 bits.
func (k *Kernel) kzalloc(size uint64) uint32 {
	if size > math.MaxUint32 {
		return 0
	}
	addr := k.heap.alloc(uint32(size))
	if addr != 0 {
		k.M.Mem.ZeroRange(addr, k.heap.live[addr])
	}
	return addr
}

// trapSyscall dispatches through the in-memory sys_call_table, entering
// guest kernel code exactly as a syscall instruction would: arguments are
// already on the caller's stack, and the handler's return lands after the
// trap.
func (k *Kernel) trapSyscall(t *vm.Thread) error {
	nr := int64(t.R[isa.R0])
	tbl := k.Syms.Lookup("sys_call_table")
	limit := k.Syms.Lookup("nr_syscalls")
	if len(tbl) != 1 || len(limit) != 1 {
		return fmt.Errorf("kernel has no syscall table")
	}
	n, err := k.M.Load(t.IP, limit[0].Addr, 4)
	if err != nil {
		return err
	}
	if nr < 0 || nr >= int64(int32(n)) {
		t.R[isa.R0] = errVal(ENOSYS)
		return nil
	}
	fnAddr, err := k.M.Load(t.IP, tbl[0].Addr+uint32(nr)*4, 4)
	if err != nil {
		return err
	}
	if fnAddr == 0 {
		t.R[isa.R0] = errVal(ENOSYS)
		return nil
	}
	// Simulate CALL: push the resume address, jump to the handler.
	sp := t.SP() - 8
	if err := k.M.Store(t.IP, sp, 8, uint64(t.IP)); err != nil {
		return err
	}
	t.SetSP(sp)
	t.IP = uint32(fnAddr)
	return nil
}

func (k *Kernel) readCString(addr uint32, max int) (string, error) {
	var sb bytes.Buffer
	for i := 0; i < max; i++ {
		b, err := k.M.Load(0, addr+uint32(i), 1)
		if err != nil {
			return "", err
		}
		if b == 0 {
			return sb.String(), nil
		}
		sb.WriteByte(byte(b))
	}
	return sb.String(), nil
}

// Console returns everything printed so far.
func (k *Kernel) Console() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.console.String()
}

// Reports returns the values guest code passed to the report trap.
func (k *Kernel) Reports() []int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]int64(nil), k.reports...)
}

// TotalSteps returns the count of guest instructions executed since boot —
// the uptime counter that keeps counting across hot updates.
func (k *Kernel) TotalSteps() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.totalSteps
}
