package kernel

import (
	"fmt"
	"time"

	"gosplice/internal/vm"
)

// Quantum is the number of instructions a task runs before the scheduler
// rotates.
const Quantum = 64

// Spawn creates a kernel thread that begins executing the named function
// with the given integer arguments and exits (via the exit stub) when the
// function returns. The entry symbol must be unambiguous.
func (k *Kernel) Spawn(name, entry string, uid int, args ...int64) (*Task, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	addr, err := k.Syms.ResolveUnique(entry)
	if err != nil {
		return nil, err
	}
	return k.spawnAtLocked(name, addr, uid, args...)
}

// SpawnAt is Spawn with an explicit entry address, for callers that must
// pick among ambiguous symbols themselves (e.g. running a probe through a
// trampolined base-kernel function whose name a loaded replacement now
// shares).
func (k *Kernel) SpawnAt(name string, entry uint32, uid int, args ...int64) (*Task, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.spawnAtLocked(name, entry, uid, args...)
}

func (k *Kernel) spawnAtLocked(name string, entry uint32, uid int, args ...int64) (*Task, error) {
	var lo, hi uint32
	if n := len(k.freeStacks); n > 0 {
		lo = k.freeStacks[n-1]
		hi = lo + StackSize
		k.freeStacks = k.freeStacks[:n-1]
	} else {
		if k.stackCur-StackSize < HeapEnd {
			return nil, fmt.Errorf("kernel: out of stack space for %s", name)
		}
		hi = k.stackCur
		lo = hi - StackSize
		k.stackCur = lo
	}

	k.nextTID++
	t := &Task{ID: k.nextTID, Name: name, StackLo: lo, StackHi: hi, UID: uid}

	// Arguments land where a caller's stack slots would be, and the
	// initial return address sends the entry function into the exit stub.
	sp := hi - uint32(8*len(args))
	for i, a := range args {
		if err := k.M.Store(0, sp+uint32(8*i), 8, uint64(a)); err != nil {
			return nil, err
		}
	}
	sp -= 8
	if err := k.M.Store(0, sp, 8, uint64(ExitStub)); err != nil {
		return nil, err
	}
	t.Th.SetSP(sp)
	t.Th.SetFP(hi)
	t.Th.IP = entry

	k.tasks = append(k.tasks, t)
	k.taskOf[&t.Th] = t
	return t, nil
}

// Tasks returns a snapshot of the task list.
func (k *Kernel) Tasks() []*Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]*Task(nil), k.tasks...)
}

// ReapExited removes exited and faulted tasks from the scheduler and
// recycles their stacks.
func (k *Kernel) ReapExited() []*Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	var live, dead []*Task
	for _, t := range k.tasks {
		if t.Runnable() {
			live = append(live, t)
		} else {
			dead = append(dead, t)
			k.releaseTaskLocked(t)
		}
	}
	k.tasks = live
	return dead
}

// releaseTaskLocked drops a task's thread mapping and recycles its stack.
// The task must already be off (or about to leave) k.tasks.
func (k *Kernel) releaseTaskLocked(t *Task) {
	delete(k.taskOf, &t.Th)
	k.freeStacks = append(k.freeStacks, t.StackLo)
}

// stepTaskLocked runs one quantum of t. Faults are recorded on the task,
// not propagated: a crashed thread is an observable kernel state (the
// evaluation uses it to detect bad splices), not a host error.
func (k *Kernel) stepTaskLocked(t *Task, quantum int) int {
	steps := 0
	t.yield = false
	for steps < quantum && t.Runnable() && !t.yield {
		if err := k.M.Step(&t.Th); err != nil {
			t.Fault = err
			break
		}
		steps++
	}
	k.totalSteps += uint64(steps)
	return steps
}

// RunSteps runs the synchronous scheduler: up to total instructions,
// distributed round-robin in Quantum slices across runnable tasks. It
// returns the number of instructions actually executed (less than total
// only when no task is runnable). Deterministic: same kernel state and
// total always schedule identically.
func (k *Kernel) RunSteps(total int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	executed := 0
	idx := 0
	for executed < total {
		// Find the next runnable task, round robin.
		found := false
		for probe := 0; probe < len(k.tasks); probe++ {
			t := k.tasks[(idx+probe)%len(k.tasks)]
			if t.Runnable() {
				idx = (idx + probe) % len(k.tasks)
				found = true
				break
			}
		}
		if !found || len(k.tasks) == 0 {
			return executed
		}
		q := Quantum
		if rem := total - executed; rem < q {
			q = rem
		}
		executed += k.stepTaskLocked(k.tasks[idx], q)
		idx++
	}
	return executed
}

// RunUntilExit drives the synchronous scheduler until t exits, faults, or
// the step budget is exhausted.
func (k *Kernel) RunUntilExit(t *Task, budget int) error {
	for budget > 0 {
		if !t.Runnable() {
			break
		}
		n := k.RunSteps(Quantum * 4)
		if n == 0 {
			break
		}
		budget -= n
	}
	if t.Fault != nil {
		return t.Fault
	}
	if !t.Exited {
		if t.Th.Halted {
			return nil
		}
		return fmt.Errorf("kernel: task %s did not exit within budget", t.Name)
	}
	return nil
}

// Call runs the named function to completion on a fresh transient thread
// using the synchronous scheduler, returning its value. Other runnable
// tasks are scheduled alongside, so a Call can be answered by a kernel
// that is concurrently running workloads.
func (k *Kernel) Call(entry string, args ...int64) (int64, error) {
	t, err := k.Spawn("call:"+entry, entry, 0, args...)
	if err != nil {
		return 0, err
	}
	err = k.RunUntilExit(t, 50_000_000)
	k.reapOne(t)
	if err != nil {
		return 0, err
	}
	return t.ExitCode, nil
}

// reapOne removes a finished task from the scheduler, recycling its
// stack; running or runnable tasks are left alone.
func (k *Kernel) reapOne(t *Task) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if t.Runnable() {
		return
	}
	for i, task := range k.tasks {
		if task == t {
			k.tasks = append(k.tasks[:i], k.tasks[i+1:]...)
			k.releaseTaskLocked(t)
			return
		}
	}
}

// CallAsUser is Call with a caller-chosen UID, for exploit programs that
// must start unprivileged.
func (k *Kernel) CallAsUser(uid int, entry string, args ...int64) (*Task, error) {
	t, err := k.Spawn("user:"+entry, entry, uid, args...)
	if err != nil {
		return nil, err
	}
	err = k.RunUntilExit(t, 50_000_000)
	k.reapOne(t)
	if err != nil {
		return t, err
	}
	return t, nil
}

// CallIsolatedAddr runs the function at addr to completion on a transient
// thread, stepping only that thread, and returns its value. Unlike Call it
// never schedules other tasks, so the Ksplice core can run update hooks
// while the machine is stopped (paper section 5.3). The caller must not
// hold the machine lock.
func (k *Kernel) CallIsolatedAddr(addr uint32, args ...int64) (int64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t, err := k.spawnAtLocked("hook", addr, 0, args...)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Remove the transient task and recycle its stack.
		for i, task := range k.tasks {
			if task == t {
				k.tasks = append(k.tasks[:i], k.tasks[i+1:]...)
				break
			}
		}
		k.releaseTaskLocked(t)
	}()
	const budget = 20_000_000
	for i := 0; i < budget && t.Runnable(); i++ {
		if err := k.M.Step(&t.Th); err != nil {
			return 0, err
		}
		k.totalSteps++
	}
	if !t.Exited {
		return 0, fmt.Errorf("kernel: isolated call at %#x did not finish", addr)
	}
	return t.ExitCode, nil
}

// --- Virtual CPUs and stop_machine ---

// StartCPUs launches n background virtual CPUs that schedule runnable
// tasks until StopCPUs. Each CPU acquires the machine lock per quantum;
// stop_machine parks all CPUs at a gate between quanta.
func (k *Kernel) StartCPUs(n int) {
	k.stop.mu.Lock()
	k.stop.quit = false
	k.stop.active += n
	k.stop.mu.Unlock()
	for i := 0; i < n; i++ {
		k.cpuWG.Add(1)
		go k.cpuLoop(i)
	}
}

// StopCPUs shuts the background CPUs down and waits for them.
func (k *Kernel) StopCPUs() {
	k.stop.mu.Lock()
	k.stop.quit = true
	k.stop.cond.Broadcast()
	k.stop.mu.Unlock()
	k.cpuWG.Wait()
	k.stop.mu.Lock()
	k.stop.active = 0
	k.stop.mu.Unlock()
}

func (k *Kernel) cpuLoop(id int) {
	defer k.cpuWG.Done()
	rrIndex := id // stagger CPUs across the task list
	for {
		// stop_machine gate.
		k.stop.mu.Lock()
		for k.stop.req && !k.stop.quit {
			k.stop.parked++
			k.stop.cond.Broadcast()
			for k.stop.req && !k.stop.quit {
				k.stop.cond.Wait()
			}
			k.stop.parked--
		}
		quit := k.stop.quit
		k.stop.mu.Unlock()
		if quit {
			return
		}

		k.mu.Lock()
		var task *Task
		for probe := 0; probe < len(k.tasks); probe++ {
			t := k.tasks[(rrIndex+probe)%len(k.tasks)]
			if t.Runnable() && !t.running {
				task = t
				rrIndex = (rrIndex + probe + 1) % len(k.tasks)
				break
			}
		}
		if task == nil {
			k.mu.Unlock()
			time.Sleep(20 * time.Microsecond)
			continue
		}
		task.running = true
		k.stepTaskLocked(task, Quantum)
		task.running = false
		k.mu.Unlock()
	}
}

// StopMachine captures every virtual CPU, runs fn with the machine
// quiescent, then releases the CPUs (paper section 5.2). It returns fn's
// error and records the pause duration. With no background CPUs running it
// degenerates to calling fn directly, which is the synchronous-scheduler
// case.
func (k *Kernel) StopMachine(fn func() error) error {
	k.stop.mu.Lock()
	k.stop.req = true
	for k.stop.parked < k.stop.active {
		k.stop.cond.Wait()
	}
	start := time.Now()
	err := fn()
	pause := time.Since(start)
	k.stop.req = false
	k.stop.cond.Broadcast()
	k.stop.mu.Unlock()

	k.cStops.Inc()
	k.hPause.ObserveDuration(pause)
	defStops.Inc()
	defPause.ObserveDuration(pause)
	k.lastPause.Store(int64(pause))
	return err
}

// LastPause returns the latest stop_machine pause: the interval during
// which no thread could be scheduled (the paper's ~0.7 ms). The count
// and the distribution of all pauses are on Metrics().
func (k *Kernel) LastPause() time.Duration { return time.Duration(k.lastPause.Load()) }

// ReadMem copies size bytes at addr under the machine lock.
func (k *Kernel) ReadMem(addr uint32, size int) ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if int64(addr)+int64(size) > int64(k.M.Mem.Len()) {
		return nil, fmt.Errorf("kernel: read %#x+%d out of range", addr, size)
	}
	return k.M.Mem.ReadBytes(addr, size), nil
}

// ReadWord reads a 4-byte little-endian word.
func (k *Kernel) ReadWord(addr uint32) (uint32, error) {
	b, err := k.ReadMem(addr, 4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteMem writes bytes at addr under the machine lock. The Ksplice core
// uses it for trampoline insertion inside StopMachine; tests use it for
// fault injection.
func (k *Kernel) WriteMem(addr uint32, data []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if int64(addr)+int64(len(data)) > int64(k.M.Mem.Len()) {
		return fmt.Errorf("kernel: write %#x+%d out of range", addr, len(data))
	}
	k.M.Mem.WriteAt(addr, data)
	return nil
}

// Lock acquires the machine lock directly. StopMachine callbacks run with
// all CPUs parked, so they may use Locked* accessors via this when doing
// many small operations.
func (k *Kernel) Lock()   { k.mu.Lock() }
func (k *Kernel) Unlock() { k.mu.Unlock() }

// LockedMem exposes machine memory to callers that hold the lock.
func (k *Kernel) LockedMem() *vm.Memory { return k.M.Mem }

// LockedTasks exposes the task list to callers that hold the lock.
func (k *Kernel) LockedTasks() []*Task { return k.tasks }

// CurrentIPs returns the instruction pointer of every live task.
func (k *Kernel) CurrentIPs() map[int]uint32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := map[int]uint32{}
	for _, t := range k.tasks {
		if t.Runnable() {
			out[t.ID] = t.Th.IP
		}
	}
	return out
}
