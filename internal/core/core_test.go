package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gosplice/internal/codegen"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
)

// testTree assembles the miniature kernel used across the core tests:
// syscalls behind a table, an inlinable permission helper in a header,
// ambiguous static symbols in two driver files, and a spinner for
// quiescence tests.
func testTree() *srctree.Tree {
	files := kernel.Lib()
	files["sys.h"] = `
int sys_getsecret(void);
int sys_setuid0(int token);
static inline int capable(int uid) { return uid == 0; }
`
	files["sys.mc"] = `#include "klib.h"
#include "sys.h"
int secret = 4242;

int sys_getsecret(void) {
	if (!capable(current_uid())) {
		return -1;
	}
	return secret;
}

int sys_setuid0(int token) {
	set_uid(0);
	return 0;
}

void *sys_call_table[8] = { sys_getsecret, sys_setuid0, 0 };
int nr_syscalls = 8;
`
	files["drivers/dst.mc"] = `
static int debug = 1;
int dst_status(void) { return debug + 100; }
`
	files["drivers/dst_ca.mc"] = `
static int debug = 2;
int ca_get_slot_info(void) { return debug + 200; }
void ca_set_debug(int v) { debug = v; }
`
	files["spinner.mc"] = `#include "klib.h"
int spin_flag = 1;
int spinner_body(void) {
	int beats = 0;
	while (spin_flag) {
		beats++;
		kyield();
	}
	return beats;
}
`
	files["user.mc"] = `#include "klib.h"
int exploit(void) {
	syscall1(1, 0);
	long s = syscall0(0);
	report(s);
	return (int)s;
}
int read_secret(void) {
	return (int)syscall0(0);
}
`
	return srctree.New("sim-2.6.16", files)
}

// callBase invokes the base kernel's copy of a function (whose entry may
// carry a trampoline). After an update the bare name is ambiguous in
// kallsyms — the replacement has the same name — so plain Call would fail.
func callBase(t *testing.T, k *kernel.Kernel, name string, args ...int64) int64 {
	t.Helper()
	var addr uint32
	for _, s := range k.Syms.Lookup(name) {
		if s.Func && s.Module == "" {
			addr = s.Addr
		}
	}
	if addr == 0 {
		t.Fatalf("no base-kernel symbol %q", name)
	}
	v, err := k.CallIsolatedAddr(addr, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return v
}

func boot(t *testing.T, tree *srctree.Tree) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{Tree: tree})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return k
}

// setuidPatch is the CVE-style fix: add the missing permission check.
const setuidPatch = `--- a/sys.mc
+++ b/sys.mc
@@ -10,6 +10,9 @@
 }

 int sys_setuid0(int token) {
+	if (!capable(current_uid())) {
+		return -1;
+	}
 	set_uid(0);
 	return 0;
 }
`

func TestCreateUpdateShape(t *testing.T) {
	tree := testTree()
	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{Name: "ksplice-test1"})
	if err != nil {
		t.Fatal(err)
	}
	if u.KernelVersion != "sim-2.6.16" || u.Name != "ksplice-test1" {
		t.Errorf("metadata: %+v", u)
	}
	if len(u.Units) != 1 || u.Units[0].Path != "sys.mc" {
		t.Fatalf("units: %+v", u.Units)
	}
	uu := u.Units[0]
	if len(uu.Patched) != 1 || uu.Patched[0] != "sys_setuid0" {
		t.Errorf("patched: %v", uu.Patched)
	}
	if len(uu.New) != 0 || len(uu.DataInitChanges) != 0 {
		t.Errorf("new=%v datachanges=%v", uu.New, uu.DataInitChanges)
	}
	if uu.Helper == nil {
		t.Fatal("no helper")
	}
	// The helper holds the whole optimization unit; the primary only the
	// changed function.
	if uu.Primary.Section(".text.sys_setuid0") == nil {
		t.Error("primary missing replacement function")
	}
	if uu.Primary.Section(".text.sys_getsecret") != nil {
		t.Error("primary includes unchanged function")
	}
	if uu.Helper.Section(".text.sys_getsecret") == nil {
		t.Error("helper missing unchanged function of the unit")
	}
	if u.PatchLines != 3 {
		t.Errorf("patch lines = %d", u.PatchLines)
	}
}

func TestApplyBlocksExploitWithoutReboot(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	// The exploit works on the vulnerable kernel.
	task, err := k.CallAsUser(1000, "exploit")
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 4242 {
		t.Fatalf("exploit pre-update = %d, want the secret", task.ExitCode)
	}

	stepsBefore := k.TotalSteps()
	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Apply(u, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trampolines) != 1 || a.Trampolines[0].Name != "sys_setuid0" {
		t.Errorf("trampolines: %+v", a.Trampolines)
	}

	// The exploit is now blocked.
	task, err = k.CallAsUser(1000, "exploit")
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != -1 {
		t.Errorf("exploit post-update = %d, want -1", task.ExitCode)
	}
	if task.UID != 1000 {
		t.Errorf("exploit uid = %d, escalation not blocked", task.UID)
	}

	// No reboot: the same kernel object kept running; uptime advanced
	// monotonically and prior state (console, tasks) is intact.
	if k.TotalSteps() <= stepsBefore {
		t.Error("uptime went backwards")
	}
	// Root can still read the secret (behaviour preserved for the
	// legitimate path).
	if got, err := k.Call("read_secret"); err != nil || got != 4242 {
		t.Errorf("root read_secret = %d, %v", got, err)
	}

	// Undo restores the vulnerability.
	if err := m.Undo(ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	task, err = k.CallAsUser(1000, "exploit")
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 4242 {
		t.Errorf("exploit post-undo = %d, want the secret again", task.ExitCode)
	}
	if len(k.Modules()) != 0 {
		t.Errorf("modules leaked after undo: %v", k.Modules())
	}
}

// TestPauseIsTheLatestStopMachine: every apply reports its own
// stop_machine pause, while the kernel keeps no per-pause history — the
// count and distribution of N captures live on its metrics registry.
func TestPauseIsTheLatestStopMachine(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)
	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 5
	for i := 0; i < cycles; i++ {
		a, err := m.Apply(u, ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Attempts != 1 || a.Pause <= 0 || a.Pause != k.LastPause() {
			t.Fatalf("cycle %d: attempts %d, pause %v, kernel's last pause %v", i, a.Attempts, a.Pause, k.LastPause())
		}
		if err := m.Undo(ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// One capture per apply and one per undo.
	const n = 2 * cycles
	if got := k.Metrics().Counter("gosplice_kernel_stop_machine_total").Value(); got != n {
		t.Errorf("stop_machine_total = %d, want %d", got, n)
	}
	if h := k.Metrics().Histogram("gosplice_kernel_stop_machine_pause_seconds", nil); h.Count() != n || h.Sum() <= 0 {
		t.Errorf("pause histogram: count %d sum %g, want count %d and a positive sum", h.Count(), h.Sum(), n)
	}
}

func TestRunPreAbortsOnWrongKernel(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	// Same version string, different code: the paper's "original source
	// does not correspond to the running kernel" hazard. Only run-pre
	// matching can catch it.
	wrong := testTree()
	wrong.Files["sys.mc"] = strings.Replace(wrong.Files["sys.mc"], "return secret;", "return secret + 1;", 1)
	u, err := CreateUpdate(wrong, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Apply(u, ApplyOptions{})
	if !errors.Is(err, ErrRunPreMismatch) {
		t.Fatalf("apply against wrong source: %v", err)
	}
	if len(k.Modules()) != 0 {
		t.Error("module left loaded after aborted update")
	}

	// A different version string is rejected before matching.
	other := testTree()
	other.Version = "sim-2.6.20"
	u2, err := CreateUpdate(other, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u2, ApplyOptions{}); !errors.Is(err, ErrWrongKernel) {
		t.Fatalf("wrong version: %v", err)
	}
}

func TestRunPreAbortsOnCompilerMismatch(t *testing.T) {
	// Kernel built with the inliner disabled; update prepared with it
	// enabled. The pre code then genuinely differs from the run code.
	tree := testTree()
	noInline := codegen.KernelBuild()
	noInline.Inline = false
	k, err := kernel.Boot(kernel.Config{Tree: tree, Opts: &noInline})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(k)
	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); !errors.Is(err, ErrRunPreMismatch) {
		t.Fatalf("compiler mismatch: %v", err)
	}
}

// dstCaPatch changes the driver function that reads the ambiguous static
// "debug" (the CVE-2005-4639 scenario of section 6.3).
const dstCaPatch = `--- a/drivers/dst_ca.mc
+++ b/drivers/dst_ca.mc
@@ -1,3 +1,3 @@
 static int debug = 2;
-int ca_get_slot_info(void) { return debug + 200; }
+int ca_get_slot_info(void) { return debug + 300; }
 void ca_set_debug(int v) { debug = v; }
`

func TestAmbiguousLocalSymbolResolution(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	if len(k.Syms.Lookup("debug")) != 2 {
		t.Fatal("test premise: debug must be ambiguous")
	}
	// Mutate the live data first so a re-initialized or misbound copy
	// would be visible.
	if _, err := k.Call("ca_set_debug", 7); err != nil {
		t.Fatal(err)
	}

	u, err := CreateUpdate(tree, dstCaPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	// The replacement must read dst_ca.mc's debug (live value 7), not
	// dst.mc's.
	if got := callBase(t, k, "ca_get_slot_info"); got != 307 {
		t.Errorf("ca_get_slot_info = %d (want 307: correct debug, live state)", got)
	}
	// The sibling file is untouched.
	if got, err := k.Call("dst_status"); err != nil || got != 101 {
		t.Errorf("dst_status = %d, %v", got, err)
	}
}

func TestTrustSymtabAblationMisbinds(t *testing.T) {
	// The same update applied with run-pre matching disabled binds
	// "debug" to the first kallsyms candidate. The two files' values
	// differ, so misbinding is observable.
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)
	if _, err := k.Call("ca_set_debug", 7); err != nil {
		t.Fatal(err)
	}
	u, err := CreateUpdate(tree, dstCaPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{TrustSymtab: true}); err != nil {
		t.Fatalf("ablation apply: %v", err)
	}
	got := callBase(t, k, "ca_get_slot_info")
	if got == 307 {
		t.Skip("kallsyms order happened to pick the right debug; ambiguity not demonstrated")
	}
	if got != 301 {
		t.Errorf("ablation result = %d, want 301 (bound to dst.mc's debug)", got)
	}
}

func TestNonQuiescentFunctionAbandoned(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	// Park a thread inside spinner_body.
	spin, err := k.Spawn("spin", "spinner_body", 0)
	if err != nil {
		t.Fatal(err)
	}
	k.RunSteps(10_000)
	if !spin.Runnable() {
		t.Fatal("spinner died")
	}

	patch := `--- a/spinner.mc
+++ b/spinner.mc
@@ -3,7 +3,7 @@
 int spinner_body(void) {
 	int beats = 0;
 	while (spin_flag) {
-		beats++;
+		beats += 2;
 		kyield();
 	}
 	return beats;
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Apply(u, ApplyOptions{MaxAttempts: 3, RetryDelay: 1})
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("apply to non-quiescent function: %v", err)
	}
	if len(k.Modules()) != 0 {
		t.Error("module left loaded after abandoned update")
	}

	// Let the spinner exit, then the same update applies cleanly.
	if err := k.WriteMem(mustAddr(t, k, "spin_flag"), []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	k.RunSteps(100_000)
	if spin.Runnable() {
		t.Fatal("spinner did not exit")
	}
	k.ReapExited()
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatalf("apply after quiescence: %v", err)
	}
}

func mustAddr(t *testing.T, k *kernel.Kernel, name string) uint32 {
	t.Helper()
	addr, err := k.Syms.ResolveUnique(name)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestStackedUpdates(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	// First update.
	u1, err := CreateUpdate(tree, dstCaPatch, CreateOptions{Name: "ksplice-u1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u1, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := callBase(t, k, "ca_get_slot_info"); got != 302 {
		t.Fatalf("after u1: %d", got)
	}

	// Second update is a diff against the previously-patched source
	// (section 5.4).
	patched1, err := tree.Patch(dstCaPatch)
	if err != nil {
		t.Fatal(err)
	}
	patch2 := `--- a/drivers/dst_ca.mc
+++ b/drivers/dst_ca.mc
@@ -1,3 +1,3 @@
 static int debug = 2;
-int ca_get_slot_info(void) { return debug + 300; }
+int ca_get_slot_info(void) { return debug + 400; }
 void ca_set_debug(int v) { debug = v; }
`
	u2, err := CreateUpdate(patched1, patch2, CreateOptions{Name: "ksplice-u2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u2, ApplyOptions{}); err != nil {
		t.Fatalf("stacked apply: %v", err)
	}
	if got := callBase(t, k, "ca_get_slot_info"); got != 402 {
		t.Errorf("after u2: %d, want 402", got)
	}
	if len(m.Applied()) != 2 {
		t.Errorf("applied stack: %d", len(m.Applied()))
	}

	// LIFO undo: u2 then u1.
	if err := m.Undo(ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := callBase(t, k, "ca_get_slot_info"); got != 302 {
		t.Errorf("after undo u2: %d, want 302", got)
	}
	if err := m.Undo(ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := callBase(t, k, "ca_get_slot_info"); got != 202 {
		t.Errorf("after undo u1: %d, want 202", got)
	}
	if err := m.Undo(ApplyOptions{}); err == nil {
		t.Error("undo of empty stack succeeded")
	}
}

func TestInlinedHelperPatchReplacesCallers(t *testing.T) {
	// capable() is defined static inline in sys.h and inlined into both
	// sys_getsecret and sys_setuid0... in the post tree of this patch,
	// which tightens capable() itself. Pre-post differencing must replace
	// every function the helper was inlined into, even though no caller's
	// source changed (paper section 4.2).
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	patch := `--- a/sys.h
+++ b/sys.h
@@ -1,4 +1,4 @@

 int sys_getsecret(void);
 int sys_setuid0(int token);
-static inline int capable(int uid) { return uid == 0; }
+static inline int capable(int uid) { return uid == 0 || uid == 50; }
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var patched []string
	for _, uu := range u.Units {
		patched = append(patched, uu.Patched...)
	}
	found := false
	for _, f := range patched {
		if f == "sys_getsecret" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sys_getsecret not replaced though its inlined helper changed: %v", patched)
	}

	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	// UID 50 can now read the secret: the inlined copy inside
	// sys_getsecret was really replaced.
	task, err := k.CallAsUser(50, "read_secret")
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 4242 {
		t.Errorf("uid 50 read_secret = %d, want 4242", task.ExitCode)
	}
	task, err = k.CallAsUser(1000, "read_secret")
	if err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != -1 {
		t.Errorf("uid 1000 read_secret = %d, want -1", task.ExitCode)
	}
}

func TestDataInitChangeDetectedAndHooksRun(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	// Mutate live state first.
	if _, err := k.Call("ca_set_debug", 9); err != nil {
		t.Fatal(err)
	}

	// The patch changes debug's initial value (a data-semantics change,
	// Table 1's most common reason) and supplies the custom code: a
	// ksplice_apply hook that fixes the live instance.
	patch := `--- a/drivers/dst_ca.mc
+++ b/drivers/dst_ca.mc
@@ -1,3 +1,9 @@
-static int debug = 2;
+static int debug = 20;
 int ca_get_slot_info(void) { return debug + 200; }
 void ca_set_debug(int v) { debug = v; }
+void ksplice_fix_debug(void) {
+	if (debug < 20) {
+		debug = debug + 20;
+	}
+}
+ksplice_apply(ksplice_fix_debug);
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	changes := u.DataInitChanges()
	if len(changes) != 1 || changes[0] != "drivers/dst_ca.mc:debug" {
		t.Errorf("data init changes: %v", changes)
	}
	if !u.HasHooks() {
		t.Error("hook section missing from update")
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	// The hook ran atomically with the splice: live value 9 -> 29.
	if got := callBase(t, k, "ca_get_slot_info"); got != 229 {
		t.Errorf("ca_get_slot_info = %d, want 229 (hook-adjusted live data)", got)
	}
}

func TestPrototypeChangePatchesCallers(t *testing.T) {
	// Changing a parameter type in a header changes callers' object code
	// with no source change to the callers (section 3.1).
	files := kernel.Lib()
	files["proto.h"] = `int scale_it(int v);`
	files["impl.mc"] = `#include "proto.h"
int scale_it(int v) { return v * 2; }
`
	files["caller.mc"] = `#include "proto.h"
int use_scale(int x) { return scale_it(x) + 1; }
`
	tree := srctree.New("sim-proto", files)
	patch := `--- a/proto.h
+++ b/proto.h
@@ -1,1 +1,1 @@
-int scale_it(int v);
+int scale_it(long v);
--- a/impl.mc
+++ b/impl.mc
@@ -1,2 +1,2 @@
 #include "proto.h"
-int scale_it(int v) { return v * 2; }
+int scale_it(long v) { return (int)(v * 2); }
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byUnit := map[string][]string{}
	for _, uu := range u.Units {
		byUnit[uu.Path] = uu.Patched
	}
	if len(byUnit["caller.mc"]) != 1 || byUnit["caller.mc"][0] != "use_scale" {
		t.Errorf("caller not patched: %v", byUnit)
	}

	k := boot(t, tree)
	m := NewManager(k)
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := callBase(t, k, "use_scale", 21); got != 43 {
		t.Errorf("use_scale = %d", got)
	}
}

func TestCommentOnlyPatchHasNoChanges(t *testing.T) {
	tree := testTree()
	patch := `--- a/drivers/dst.mc
+++ b/drivers/dst.mc
@@ -1,2 +1,3 @@
+// dst: debug print level
 static int debug = 1;
 int dst_status(void) { return debug + 100; }
`
	_, err := CreateUpdate(tree, patch, CreateOptions{})
	if !errors.Is(err, ErrNoChanges) {
		t.Fatalf("comment-only patch: %v", err)
	}
}

func TestApplyUnderLiveLoad(t *testing.T) {
	// Splice while background CPUs are scheduling threads that call the
	// patched syscall in a loop; the update must land and nothing may
	// fault.
	tree := testTree()
	files := tree.Files
	files["load.mc"] = `#include "klib.h"
int load_loop(int rounds) {
	int i;
	int bad = 0;
	for (i = 0; i < rounds; i++) {
		long r = syscall0(0);
		if (r != -1 && r != 4242) bad++;
		kyield();
	}
	return bad;
}
`
	k := boot(t, tree)
	m := NewManager(k)

	var workers []*kernel.Task
	for i := 0; i < 3; i++ {
		w, err := k.Spawn("load", "load_loop", 1000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	k.StartCPUs(2)

	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{})
	if err != nil {
		k.StopCPUs()
		t.Fatal(err)
	}
	a, err := m.Apply(u, ApplyOptions{MaxAttempts: 50})
	if err != nil {
		k.StopCPUs()
		t.Fatalf("apply under load: %v", err)
	}
	t.Logf("applied after %d attempts, pause %v", a.Attempts, a.Pause)

	// Drain the workers (reading task state needs the machine lock while
	// CPUs are live).
	deadline := time.Now().Add(30 * time.Second)
	for {
		k.Lock()
		live := 0
		for _, w := range workers {
			if w.Runnable() {
				live++
			}
		}
		k.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			k.StopCPUs()
			t.Fatal("workers did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	k.StopCPUs()
	for _, w := range workers {
		if w.Fault != nil {
			t.Errorf("worker faulted: %v", w.Fault)
		}
		if w.ExitCode != 0 {
			t.Errorf("worker observed %d bad syscall results", w.ExitCode)
		}
	}
}
