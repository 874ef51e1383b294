// Package kernel implements the simulated operating system kernel that
// Ksplice updates: a SIM32 machine running a kernel image built from a
// MiniC source tree, with kernel threads, a round-robin scheduler over
// one or more virtual CPUs, a stop_machine facility, kallsyms, loadable
// modules, a syscall table, and a kmalloc heap.
//
// The kernel's executable behaviour lives entirely in guest MiniC code;
// the host side supplies only the machine services a real kernel gets
// from hardware and its lowest-level assembly: trap dispatch, the
// allocator, console output, and thread/CPU bookkeeping. Security
// vulnerabilities and their fixes are therefore properties of guest code,
// and hot updates change guest behaviour with no host involvement —
// the property the whole reproduction turns on.
package kernel

import (
	"bytes"
	"fmt"
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

	yield   bool
	running bool
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
	modules      map[string]*Module
	shadows      map[shadowKey]uint32

	console bytes.Buffer
	reports []int64

	totalSteps uint64
	bootedAt   time.Time

	stop struct {
		mu     sync.Mutex
		cond   *sync.Cond
		req    bool
		active int
		parked int
		quit   bool
	}
	cpuWG sync.WaitGroup

	// StopMachine statistics: the call count and a pause histogram live
	// on the kernel's telemetry registry (see Metrics).
	met    *telemetry.Registry
	cStops *telemetry.Counter
	hPause *telemetry.Histogram
}

// The process-wide families exist from package init, so a fresh
// process scrapes them at zero; every kernel's registry rolls up into
// them.
func init() {
	d := telemetry.Default()
	d.Help("gosplice_kernel_stop_machine_total", "stop_machine invocations, summed across all kernel instances")
	d.Help("gosplice_kernel_stop_machine_pause_seconds", "stop_machine pause durations, summed across all kernel instances")
	d.Counter("gosplice_kernel_stop_machine_total")
	d.Histogram("gosplice_kernel_stop_machine_pause_seconds", nil)
}

// initMetrics gives a kernel its private telemetry registry.
func (k *Kernel) initMetrics() {
	k.met = telemetry.NewRegistry()
	k.met.Help("gosplice_kernel_stop_machine_total", "stop_machine invocations")
	k.met.Help("gosplice_kernel_stop_machine_pause_seconds", "stop_machine pause durations")
	k.cStops = k.met.Counter("gosplice_kernel_stop_machine_total")
	k.hPause = k.met.Histogram("gosplice_kernel_stop_machine_pause_seconds", nil)
}

// Metrics returns the kernel's telemetry registry.
func (k *Kernel) Metrics() *telemetry.Registry { return k.met }

// Config configures Boot.
type Config struct {
	Tree *srctree.Tree
}

// Boot builds the tree with codegen.KernelBuild() — whole-.text units,
// branch relaxation, inlining: a distributor's kernel — and links the
// image, both through the artifact store, then starts a kernel with
// BootImage. A second Boot of the same tree content compiles and links
// nothing. If the tree defines a unique global function "kinit", it
// runs to completion on a bootstrap thread before Boot returns.
func Boot(cfg Config) (*Kernel, error) {
	br, err := srctree.BuildCached(cfg.Tree, codegen.KernelBuild())
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
		Version:  br.Tree.Version,
		taskOf:   map[*vm.Thread]*Task{},
		modules:  map[string]*Module{},
		shadows:  map[shadowKey]uint32{},
		stackCur: uint32(memSize),
		bootedAt: time.Now(),
	}
	k.initMetrics()
	k.stop.cond = sync.NewCond(&k.stop.mu)
	k.M.LowGuard = LowGuard
	k.M.Mem.WriteAt(KernelBase, im.Bytes)
	// Exit stub: TRAP exit; HLT as a backstop.
	stub := isa.TRAP(nil, TrapExit)
	stub = isa.HLT(stub)
	k.M.Mem.WriteAt(ExitStub, stub)

	k.moduleCursor = (im.End() + 0xFFF) &^ 0xFFF
	k.heap = newHeap(HeapBase, HeapEnd)
	k.installTraps()

	if syms := k.Syms.Lookup("kinit"); len(syms) == 1 {
		if _, err := k.Call("kinit"); err != nil {
			return nil, fmt.Errorf("kernel: kinit failed: %w", err)
		}
	}
	return k, nil
}

// Clone snapshots a quiescent kernel into an independent instance: machine
// memory, the heap, the symbol table, shadow bindings, loaded modules and
// counters are all copied, so the clone and the original never share
// mutable state. The kernel must have no live tasks and no background
// CPUs running — the snapshot is taken between instructions, like booting
// a second machine from a memory image. The evaluation pipeline boots one
// template kernel per release and clones it per patch, which skips the
// build, link and kinit cost of a fresh boot.
func (k *Kernel) Clone() (*Kernel, error) {
	k.stop.mu.Lock()
	active := k.stop.active
	k.stop.mu.Unlock()
	if active > 0 {
		return nil, fmt.Errorf("kernel: cannot clone with %d background CPUs running", active)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if n := len(k.tasks); n > 0 {
		return nil, fmt.Errorf("kernel: cannot clone with %d live tasks", n)
	}
	n := &Kernel{
		M:            k.M.Clone(),
		Image:        k.Image,
		Syms:         k.Syms.Clone(),
		Build:        k.Build,
		Version:      k.Version,
		taskOf:       map[*vm.Thread]*Task{},
		nextTID:      k.nextTID,
		stackCur:     k.stackCur,
		freeStacks:   append([]uint32(nil), k.freeStacks...),
		heap:         k.heap.clone(),
		moduleCursor: k.moduleCursor,
		modules:      make(map[string]*Module, len(k.modules)),
		shadows:      make(map[shadowKey]uint32, len(k.shadows)),
		totalSteps:   k.totalSteps,
		bootedAt:     time.Now(),
	}
	for name, mod := range k.modules {
		n.modules[name] = mod
	}
	for key, addr := range k.shadows {
		n.shadows[key] = addr
	}
	n.console.Write(k.console.Bytes())
	n.reports = append([]int64(nil), k.reports...)
	n.initMetrics()
	n.stop.cond = sync.NewCond(&n.stop.mu)
	// n.M shares k's memory copy-on-write: both sides fault pages private
	// on write, so neither can observe the other's mutations.
	n.installTraps()
	return n, nil
}

// installTraps registers the host service handlers. Handlers run while
// the calling CPU holds the machine lock; they must not re-acquire it.
func (k *Kernel) installTraps() {
	m := k.M
	m.Handle(TrapSyscall, k.trapSyscall)
	m.Handle(TrapPutchar, func(t *vm.Thread) error {
		k.console.WriteByte(byte(t.R[isa.R0]))
		return nil
	})
	m.Handle(TrapPuts, func(t *vm.Thread) error {
		s, err := k.readCString(uint32(t.R[isa.R0]), 4096)
		if err != nil {
			return err
		}
		k.console.WriteString(s)
		return nil
	})
	m.Handle(TrapKmalloc, func(t *vm.Thread) error {
		addr := k.heap.alloc(uint32(t.R[isa.R0]))
		if addr != 0 {
			// Zero the block, like kzalloc; deterministic guest state.
			k.M.Mem.ZeroRange(addr, k.heap.live[addr])
		}
		t.R[isa.R0] = uint64(addr)
		return nil
	})
	m.Handle(TrapKfree, func(t *vm.Thread) error {
		addr := uint32(t.R[isa.R0])
		if addr == 0 {
			return nil
		}
		return k.heap.freeBlock(addr)
	})
	m.Handle(TrapYield, func(t *vm.Thread) error {
		if task := k.taskOf[t]; task != nil {
			task.yield = true
		}
		return nil
	})
	m.Handle(TrapExit, func(t *vm.Thread) error {
		task := k.taskOf[t]
		if task == nil {
			t.Halted = true
			return nil
		}
		task.Exited = true
		task.ExitCode = int64(t.R[isa.R0])
		t.Halted = true
		return nil
	})
	m.Handle(TrapGetpid, func(t *vm.Thread) error {
		if task := k.taskOf[t]; task != nil {
			t.R[isa.R0] = uint64(task.ID)
		}
		return nil
	})
	m.Handle(TrapGetuid, func(t *vm.Thread) error {
		if task := k.taskOf[t]; task != nil {
			t.R[isa.R0] = uint64(uint32(task.UID))
		}
		return nil
	})
	m.Handle(TrapSetuid, func(t *vm.Thread) error {
		if task := k.taskOf[t]; task != nil {
			task.UID = int(int32(t.R[isa.R0]))
		}
		return nil
	})
	m.Handle(TrapShadowGet, func(t *vm.Thread) error {
		key := shadowKey{uint32(t.R[isa.R0]), uint32(t.R[isa.R1])}
		t.R[isa.R0] = uint64(k.shadows[key])
		return nil
	})
	m.Handle(TrapShadowAtt, func(t *vm.Thread) error {
		key := shadowKey{uint32(t.R[isa.R0]), uint32(t.R[isa.R1])}
		if addr, ok := k.shadows[key]; ok {
			t.R[isa.R0] = uint64(addr)
			return nil
		}
		addr := k.heap.alloc(uint32(t.R[isa.R2]))
		if addr != 0 {
			k.M.Mem.ZeroRange(addr, k.heap.live[addr])
			k.shadows[key] = addr
		}
		t.R[isa.R0] = uint64(addr)
		return nil
	})
	m.Handle(TrapShadowDet, func(t *vm.Thread) error {
		key := shadowKey{uint32(t.R[isa.R0]), uint32(t.R[isa.R1])}
		if addr, ok := k.shadows[key]; ok {
			delete(k.shadows, key)
			return k.heap.freeBlock(addr)
		}
		return nil
	})
	m.Handle(TrapReport, func(t *vm.Thread) error {
		k.reports = append(k.reports, int64(t.R[isa.R0]))
		return nil
	})
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
