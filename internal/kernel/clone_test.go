package kernel

import (
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

// TestCloneIsIndependent verifies the snapshot semantics Clone promises:
// the clone starts from the original's exact state, and afterwards the
// two kernels share no mutable state — memory writes, heap allocations,
// task execution and symbol-table changes on one are invisible to the
// other.
func TestCloneIsIndependent(t *testing.T) {
	k := bootTest(t)
	c, err := k.Clone()
	if err != nil {
		t.Fatalf("clone: %v", err)
	}

	// The clone carries the boot-time state.
	sym, err := c.Syms.ResolveUnique("boot_count")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c.ReadWord(sym); err != nil || v != 1 {
		t.Fatalf("clone boot_count = %d, %v", v, err)
	}

	// Guest execution on the clone does not touch the original.
	if _, err := c.Call("worker", 10); err != nil {
		t.Fatal(err)
	}
	secret, _ := k.Syms.ResolveUnique("secret")
	if err := c.WriteMem(secret, []byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if v, _ := k.ReadWord(secret); v != 4242 {
		t.Errorf("original secret changed to %d after clone write", v)
	}
	if v, _ := c.ReadWord(secret); v != 1 {
		t.Errorf("clone secret = %d, want 1", v)
	}

	// Module load on the clone leaves the original's symtab alone.
	mtree := srctree.New("m-1.0", map[string]string{"m.mc": `
int clone_mod_fn(int x) {
	return x + 7;
}
`})
	f, err := srctree.BuildUnit(mtree, "m.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadModule("clone-mod", []*obj.File{f}, nil); err != nil {
		t.Fatalf("module load on clone: %v", err)
	}
	if syms := c.Syms.Lookup("clone_mod_fn"); len(syms) != 1 {
		t.Errorf("clone kallsyms has %d clone_mod_fn entries", len(syms))
	}
	if syms := k.Syms.Lookup("clone_mod_fn"); len(syms) != 0 {
		t.Errorf("original kallsyms sees the clone's module (%d entries)", len(syms))
	}

	// A module the original loads after cloning stays out of the clone.
	loadTestModule(t, k, "b", 2)
	if _, ok := c.Module("b"); ok {
		t.Error("clone lists a module the original loaded after cloning")
	}
	if n := len(c.Syms.Lookup("fn_b")); n != 0 {
		t.Errorf("clone kallsyms sees the original's later module (%d entries)", n)
	}

	// A clone unloading a module the original keeps leaves the original's
	// module list, kallsyms and code alone.
	c2, err := k.Clone()
	if err != nil {
		t.Fatalf("second clone: %v", err)
	}
	if err := c2.UnloadModule("b"); err != nil {
		t.Fatal(err)
	}
	checkModules(t, c2)
	checkModules(t, k, "b")
	if got, err := k.Call("fn_b"); err != nil || got != 1002 {
		t.Errorf("original fn_b = %d, %v after a clone unloaded it; want 1002", got, err)
	}
}

// TestCloneRefusesLiveState: a kernel with live tasks is not a
// snapshotable machine state.
func TestCloneRefusesLiveState(t *testing.T) {
	k := bootTest(t)
	task, err := k.Spawn("spinner", "worker", 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	k.RunSteps(500)
	if !task.Runnable() {
		t.Fatal("premise: task exited")
	}
	if _, err := k.Clone(); err == nil {
		t.Error("clone succeeded with a live task")
	}
	// Drain and reap; now cloning works again.
	k.RunSteps(5_000_000)
	k.ReapExited()
	if _, err := k.Clone(); err != nil {
		t.Errorf("clone after drain: %v", err)
	}
}
