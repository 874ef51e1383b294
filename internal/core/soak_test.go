package core

import (
	"testing"

	"gosplice/internal/srctree"
)

// TestApplyUndoSoak cycles one update a few hundred times on a kernel
// that keeps doing work in between: nothing may leak (module address
// space, heap blocks, tasks) and behaviour must flip every cycle. This is
// the long-uptime story the paper sells — a machine that takes hot
// updates for years.
func TestApplyUndoSoak(t *testing.T) {
	cycles := 200
	if testing.Short() {
		cycles = 20
	}
	tree := testTree()
	k := boot(t, tree)
	m := NewManager(k)

	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	exploitOnce := func(want int64) {
		t.Helper()
		task, err := k.CallAsUser(1000, "exploit")
		if err != nil {
			t.Fatal(err)
		}
		if task.ExitCode != want {
			t.Fatalf("exploit = %d, want %d", task.ExitCode, want)
		}
	}

	var firstModBase uint32
	for i := 0; i < cycles; i++ {
		exploitOnce(4242)
		a, err := m.Apply(u, ApplyOptions{})
		if err != nil {
			t.Fatalf("cycle %d apply: %v", i, err)
		}
		mod, ok := k.Module(a.ModuleName)
		if !ok {
			t.Fatalf("cycle %d: module missing", i)
		}
		if firstModBase == 0 {
			firstModBase = mod.Base
		} else if mod.Base != firstModBase {
			t.Fatalf("cycle %d: module address crept from %#x to %#x", i, firstModBase, mod.Base)
		}
		exploitOnce(-1)
		if err := m.Undo(ApplyOptions{}); err != nil {
			t.Fatalf("cycle %d undo: %v", i, err)
		}
	}
	exploitOnce(4242)

	if n := len(k.Modules()); n != 0 {
		t.Errorf("%d modules resident after soak", n)
	}
	if n := len(k.Tasks()); n != 0 {
		t.Errorf("%d tasks resident after soak", n)
	}
}

// TestSoakUnderBackgroundLoad runs a shorter soak with threads grinding
// a workload between the splices: the guest runs before every apply and
// every undo, so each capture finds the threads somewhere new.
func TestSoakUnderBackgroundLoad(t *testing.T) {
	files := testFiles()
	files["churn.mc"] = `#include "klib.h"
int churn(int rounds) {
	int i;
	for (i = 0; i < rounds; i++) {
		void *p = kmalloc(48);
		if (p) {
			kfree(p);
		}
		kyield();
	}
	return 0;
}
`
	tree := srctree.New("sim-2.6.16", files)
	k := boot(t, tree)
	m := NewManager(k)
	for i := 0; i < 3; i++ {
		if _, err := k.Spawn("churn", "churn", 0, 10_000_000); err != nil {
			t.Fatal(err)
		}
	}

	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		k.RunSteps(5_000)
		if _, err := m.Apply(u, ApplyOptions{}); err != nil {
			t.Fatalf("cycle %d apply: %v", i, err)
		}
		k.RunSteps(5_000)
		if err := m.Undo(ApplyOptions{}); err != nil {
			t.Fatalf("cycle %d undo: %v", i, err)
		}
	}
	// The workers survived the churn of 50 splices.
	k.Lock()
	for _, task := range k.LockedTasks() {
		if task.Fault != nil {
			t.Errorf("worker faulted: %v", task.Fault)
		}
	}
	k.Unlock()
}
