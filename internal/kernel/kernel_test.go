package kernel

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

// testTree builds a miniature kernel with a syscall table, workloads, and
// a few exploitable-looking syscalls.
func testTree() *srctree.Tree {
	files := Lib()
	files["main.mc"] = `#include "klib.h"
int boot_count = 0;
int secret = 4242;

void kinit(void) {
	boot_count++;
	printk("booted\n");
}

int sys_add(int a, int b) { return a + b; }

int sys_getsecret(void) {
	if (current_uid() != 0) {
		return -1;
	}
	return secret;
}

int sys_setuid0(int token) {
	// Deliberately missing a permission check: any caller becomes root.
	set_uid(0);
	return 0;
}

void *sys_call_table[8] = { sys_add, sys_getsecret, sys_setuid0, 0 };
int nr_syscalls = 8;

int worker(int rounds) {
	int acc = 0;
	int i;
	for (i = 0; i < rounds; i++) {
		acc += i;
		kyield();
	}
	return acc;
}

int alloc_play(int n) {
	int *p = (int *)kmalloc(n * 4);
	if (!p) return -1;
	int i;
	for (i = 0; i < n; i++) p[i] = i * 2;
	int total = 0;
	for (i = 0; i < n; i++) total += p[i];
	kfree(p);
	return total;
}

int crashme(void) {
	int *p = (int *)0;
	return *p;
}
`
	files["user.mc"] = `#include "klib.h"
int umain(void) {
	long r = syscall2(0, 7, 8);
	report(r);
	return (int)r;
}
int exploit(void) {
	syscall1(2, 0);
	long s = syscall0(1);
	report(s);
	return (int)s;
}
int badsyscall(void) {
	return (int)syscall0(99);
}
`
	return srctree.New("test-0.1", files)
}

func bootTest(t *testing.T) *Kernel {
	t.Helper()
	k, err := Boot(Config{Tree: testTree()})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return k
}

func TestBootRunsKinit(t *testing.T) {
	k := bootTest(t)
	if got := k.Console(); !strings.Contains(got, "booted") {
		t.Errorf("console = %q", got)
	}
	sym, err := k.Syms.ResolveUnique("boot_count")
	if err != nil {
		t.Fatal(err)
	}
	v, err := k.ReadWord(sym)
	if err != nil || v != 1 {
		t.Errorf("boot_count = %d, %v", v, err)
	}
}

func TestDirectCall(t *testing.T) {
	k := bootTest(t)
	got, err := k.Call("sys_add", 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("sys_add = %d", got)
	}
	if got, err := k.Call("alloc_play", 100); err != nil || got != 9900 {
		t.Errorf("alloc_play = %d, %v", got, err)
	}
	// Heap fully released.
	blocks, bytes := k.heap.inUse()
	if blocks != 0 || bytes != 0 {
		t.Errorf("heap leak: %d blocks, %d bytes", blocks, bytes)
	}
}

func TestSyscallDispatch(t *testing.T) {
	k := bootTest(t)
	task, err := k.CallAsUser(1000, "umain")
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 15 {
		t.Errorf("umain exit = %d", task.ExitCode)
	}
	if rep := k.Reports(); len(rep) != 1 || rep[0] != 15 {
		t.Errorf("reports = %v", rep)
	}
	// Unknown syscall returns ENOSYS.
	if got, err := k.Call("badsyscall"); err != nil || got != ENOSYS {
		t.Errorf("badsyscall = %d, %v", got, err)
	}
}

func TestPrivilegeEscalationScenario(t *testing.T) {
	k := bootTest(t)
	// Unprivileged read of the secret fails...
	task, err := k.CallAsUser(1000, "exploit")
	if err != nil {
		t.Fatal(err)
	}
	// ...but sys_setuid0 is missing its check, so the exploit succeeds.
	if task.ExitCode != 4242 {
		t.Errorf("exploit exit = %d, want the secret (4242)", task.ExitCode)
	}
	if task.UID != 0 {
		t.Errorf("exploit uid = %d, want 0", task.UID)
	}
}

func TestFaultIsolation(t *testing.T) {
	k := bootTest(t)
	task, err := k.Spawn("crash", "crashme", 0)
	if err != nil {
		t.Fatal(err)
	}
	k.RunSteps(10_000)
	if task.Fault == nil {
		t.Fatal("null dereference did not fault")
	}
	if !strings.Contains(task.Fault.Error(), "guard page") {
		t.Errorf("fault = %v", task.Fault)
	}
	// The kernel survives; other calls still work.
	if got, err := k.Call("sys_add", 1, 2); err != nil || got != 3 {
		t.Errorf("post-crash call = %d, %v", got, err)
	}
}

func TestRoundRobinScheduling(t *testing.T) {
	k := bootTest(t)
	t1, err := k.Spawn("w1", "worker", 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := k.Spawn("w2", "worker", 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	k.RunSteps(5_000_000)
	if !t1.Exited || !t2.Exited {
		t.Fatalf("workers did not finish: %v %v", t1.Exited, t2.Exited)
	}
	if t1.ExitCode != 1225 || t2.ExitCode != 1225 {
		t.Errorf("worker results: %d %d", t1.ExitCode, t2.ExitCode)
	}
	dead := k.ReapExited()
	if len(dead) < 2 {
		t.Errorf("reaped %d tasks", len(dead))
	}
}

func TestBackgroundCPUsAndStopMachine(t *testing.T) {
	k := bootTest(t)
	for i := 0; i < 4; i++ {
		if _, err := k.Spawn("bg", "worker", 0, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	k.StartCPUs(2)
	defer k.StopCPUs()

	// Let the workers run a bit.
	deadline := time.Now().Add(2 * time.Second)
	for k.TotalSteps() < 10_000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if k.TotalSteps() < 10_000 {
		t.Fatal("background CPUs executed too little")
	}

	var inFn atomic.Bool
	var stepsDuring [2]uint64
	pause, err := k.StopMachine(func() error {
		inFn.Store(true)
		stepsDuring[0] = k.TotalSteps()
		time.Sleep(2 * time.Millisecond) // hold the machine stopped
		stepsDuring[1] = k.TotalSteps()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stepsDuring[0] != stepsDuring[1] {
		t.Errorf("threads were scheduled during stop_machine: %d -> %d", stepsDuring[0], stepsDuring[1])
	}
	calls := k.Metrics().Counter("gosplice_kernel_stop_machine_total").Value()
	pauses := k.Metrics().Histogram("gosplice_kernel_stop_machine_pause_seconds", nil)
	if calls != 1 || pauses.Count() != 1 || pauses.Sum() < 0.002 || pause < 2*time.Millisecond {
		t.Errorf("stats: %d calls, %d pauses summing to %gs, returned %v", calls, pauses.Count(), pauses.Sum(), pause)
	}
	// Execution resumes after release.
	before := k.TotalSteps()
	deadline = time.Now().Add(2 * time.Second)
	for k.TotalSteps() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if k.TotalSteps() == before {
		t.Error("execution did not resume after stop_machine")
	}
}

func TestModuleLoadAndUnload(t *testing.T) {
	k := bootTest(t)
	// A module calling a kernel function through kallsyms resolution.
	tree := srctree.New("mod", map[string]string{"mod.mc": `
int sys_add(int a, int b);
int mod_entry(int x) { return sys_add(x, 100); }
`})
	f, err := srctree.BuildUnit(tree, "mod.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.LoadModule("testmod", []*obj.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.Call("mod_entry", 5); err != nil || got != 105 {
		t.Errorf("mod_entry = %d, %v", got, err)
	}
	if mod.Base < k.Image.End() || mod.Base >= HeapBase {
		t.Errorf("module at %#x outside module area", mod.Base)
	}
	// Duplicate load fails.
	if _, err := k.LoadModule("testmod", []*obj.File{f}, nil); err == nil {
		t.Error("duplicate module load succeeded")
	}
	if err := k.UnloadModule("testmod"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call("mod_entry", 5); err == nil {
		t.Error("mod_entry callable after unload")
	}
	if err := k.UnloadModule("testmod"); err == nil {
		t.Error("double unload succeeded")
	}
}

func TestModuleResolverPreference(t *testing.T) {
	k := bootTest(t)
	tree := srctree.New("mod", map[string]string{"mod.mc": `
int sys_add(int a, int b);
int probe(void) { return sys_add(1, 1); }
`})
	f, err := srctree.BuildUnit(tree, "mod.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	// A resolver that redirects sys_add to sys_getsecret: the module's
	// call goes where the resolver says, not where kallsyms says.
	secret, err := k.Syms.ResolveUnique("sys_getsecret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadModule("redir", []*obj.File{f}, func(name string) (uint32, error) {
		if name == "sys_add" {
			return secret, nil
		}
		return 0, errNotFound
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := k.Call("probe"); err != nil || got != 4242 {
		t.Errorf("probe = %d, %v (resolver not preferred)", got, err)
	}
}

var errNotFound = errNotFoundT{}

type errNotFoundT struct{}

func (errNotFoundT) Error() string { return "not found" }

func TestAmbiguityCensus(t *testing.T) {
	files := Lib()
	files["a.mc"] = `static int debug = 1; int fa(void) { return debug; }`
	files["b.mc"] = `static int debug = 2; int fb(void) { return debug; }`
	files["c.mc"] = `int unique_c = 3; int fc(void) { return unique_c; }`
	k, err := Boot(Config{Tree: srctree.New("amb", files)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(k.Syms.Lookup("debug")); got != 2 {
		t.Fatalf("debug symbols: %d", got)
	}
	if _, err := k.Syms.ResolveUnique("debug"); err == nil {
		t.Error("ambiguous resolve succeeded")
	}
	stats := k.Syms.Ambiguity()
	if stats.AmbiguousSymbols < 2 {
		t.Errorf("census: %+v", stats)
	}
	if stats.UnitsWithAmbig != 2 {
		t.Errorf("units with ambiguity: %+v", stats)
	}
	// Both functions read their own unit's debug.
	if got, _ := k.Call("fa"); got != 1 {
		t.Errorf("fa = %d", got)
	}
	if got, _ := k.Call("fb"); got != 2 {
		t.Errorf("fb = %d", got)
	}
}

func TestFuncAt(t *testing.T) {
	k := bootTest(t)
	addr, err := k.Syms.ResolveUnique("sys_add")
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := k.Syms.FuncAt(addr + 3)
	if !ok || sym.Name != "sys_add" {
		t.Errorf("FuncAt = %+v, %v", sym, ok)
	}
	if _, ok := k.Syms.FuncAt(0x500); ok {
		t.Error("FuncAt matched unmapped address")
	}
}

func TestShadowTraps(t *testing.T) {
	files := Lib()
	files["s.mc"] = `#include "klib.h"
int target = 7;
int attach_and_use(void) {
	int *sh = (int *)shadow_attach(&target, 1, 8);
	if (!sh) return -1;
	sh[0] = 55;
	int *again = (int *)shadow_get(&target, 1);
	if (again != sh) return -2;
	int v = again[0];
	shadow_detach(&target, 1);
	if (shadow_get(&target, 1)) return -3;
	return v;
}
`
	k, err := Boot(Config{Tree: srctree.New("sh", files)})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.Call("attach_and_use"); err != nil || got != 55 {
		t.Errorf("attach_and_use = %d, %v", got, err)
	}
}
