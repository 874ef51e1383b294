package core

import (
	"strings"
	"testing"

	"gosplice/internal/diffutil"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
)

const hookedVuln = `#include "klib.h"
int hook_trace[8];
int trace_n = 0;
int victim(int x) { return x + 1; }
`

// hookTree gives each hook kind something observable to do.
func hookTree() *srctree.Tree {
	files := kernel.Lib()
	files["hooked.mc"] = hookedVuln
	return srctree.New("hooked-1.0", files)
}

// hookedPatch fixes victim and registers one hook of every apply-side
// kind plus a reverse hook.
var hookedPatch = diffutil.DiffFiles("hooked.mc", hookedVuln, `#include "klib.h"
int hook_trace[8];
int trace_n = 0;
int victim(int x) { return x + 2; }

void on_pre_apply(void) {
	hook_trace[trace_n] = 1;
	trace_n++;
}
void on_apply(void) {
	hook_trace[trace_n] = 2;
	trace_n++;
}
void on_post_apply(void) {
	hook_trace[trace_n] = 3;
	trace_n++;
}
void on_reverse(void) {
	hook_trace[trace_n] = 4;
	trace_n++;
}
ksplice_pre_apply(on_pre_apply);
ksplice_apply(on_apply);
ksplice_post_apply(on_post_apply);
ksplice_reverse(on_reverse);
`)

func TestHookOrderingAcrossApplyAndUndo(t *testing.T) {
	tree := hookTree()
	k := boot(t, tree)
	m := NewManager(k)

	u, err := CreateUpdate(tree, hookedPatch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	readTrace := func() []uint32 {
		base, _ := k.Syms.ResolveUnique("hook_trace")
		nAddr, _ := k.Syms.ResolveUnique("trace_n")
		n, _ := k.ReadWord(nAddr)
		var out []uint32
		for i := uint32(0); i < n && i < 8; i++ {
			v, _ := k.ReadWord(base + 4*i)
			out = append(out, v)
		}
		return out
	}
	got := readTrace()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("apply hook order = %v, want [1 2 3]", got)
	}

	if err := m.Undo(ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	got = readTrace()
	if len(got) != 4 || got[3] != 4 {
		t.Fatalf("after undo trace = %v, want reverse hook appended", got)
	}

	// The splice itself really happened and reversed.
	if v, err := k.Call("victim", 1); err != nil || v != 2 {
		t.Errorf("victim after undo = %d, %v", v, err)
	}
}

func TestFailingPreApplyHookAbortsBeforeSplice(t *testing.T) {
	tree := hookTree()
	k := boot(t, tree)
	m := NewManager(k)

	patch := diffutil.DiffFiles("hooked.mc", hookedVuln, `#include "klib.h"
int hook_trace[8];
int trace_n = 0;
int victim(int x) { return x + 2; }

void exploding_hook(void) {
	int *p = (int *)0;
	*p = 1;
}
ksplice_pre_apply(exploding_hook);
`)
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Apply(u, ApplyOptions{})
	if err == nil || !strings.Contains(err.Error(), "pre_apply hook failed") {
		t.Fatalf("apply with exploding hook: %v", err)
	}
	// Nothing was spliced; nothing is loaded.
	if v, _ := k.Call("victim", 1); v != 2 {
		t.Errorf("victim = %d, want untouched 2", v)
	}
	if len(k.Modules()) != 0 {
		t.Error("module leaked after aborted update")
	}
	if len(m.Applied()) != 0 {
		t.Error("applied stack not empty")
	}
}

func TestFailingApplyHookRollsBackTrampolines(t *testing.T) {
	tree := hookTree()
	k := boot(t, tree)
	m := NewManager(k)

	patch := diffutil.DiffFiles("hooked.mc", hookedVuln, `#include "klib.h"
int hook_trace[8];
int trace_n = 0;
int victim(int x) { return x + 2; }

void exploding_apply(void) {
	int *p = (int *)0;
	*p = 1;
}
ksplice_apply(exploding_apply);
`)
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Apply(u, ApplyOptions{})
	if err == nil || !strings.Contains(err.Error(), "apply hook failed") {
		t.Fatalf("apply with exploding apply-hook: %v", err)
	}
	// The trampolines written inside stop_machine were rolled back
	// atomically: the old code runs, byte-identical.
	if v, err := k.Call("victim", 1); err != nil || v != 2 {
		t.Errorf("victim = %d, %v (trampoline not rolled back)", v, err)
	}
	if len(k.Modules()) != 0 {
		t.Error("module leaked")
	}
}

// explodingHookPatch fixes victim to return x + 2 and registers a hook of
// the given kind that faults.
func explodingHookPatch(kind string) string {
	return diffutil.DiffFiles("hooked.mc", hookedVuln, `#include "klib.h"
int hook_trace[8];
int trace_n = 0;
int victim(int x) { return x + 2; }

void exploding_hook(void) {
	int *p = (int *)0;
	*p = 1;
}
ksplice_`+kind+`(exploding_hook);
`)
}

// baseVictim calls the base kernel's victim(1), through any trampoline.
func baseVictim(k *kernel.Kernel) (int64, error) {
	addr, _ := baseFuncAddr(k, "victim")
	return k.CallIsolatedAddr(addr, 1)
}

// TestFailingPostApplyHookKeepsUpdateUndoable: the splice is live when a
// post_apply hook fails, so the update must be on the stack and Undo must
// reverse it.
func TestFailingPostApplyHookKeepsUpdateUndoable(t *testing.T) {
	tree := hookTree()
	k := boot(t, tree)
	m := NewManager(k)
	u, err := CreateUpdate(tree, explodingHookPatch("post_apply"), CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Apply(u, ApplyOptions{})
	if a == nil || err == nil || !strings.Contains(err.Error(), "post_apply hook failed") {
		t.Fatalf("apply with exploding post_apply hook: %v, %v", a, err)
	}
	if v, err := baseVictim(k); err != nil || v != 3 {
		t.Errorf("victim = %d, %v, want the fixed 3", v, err)
	}
	if n := len(m.Applied()); n != 1 {
		t.Fatalf("%d updates applied, want the live one", n)
	}
	if err := m.Undo(ApplyOptions{}); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if v, err := baseVictim(k); err != nil || v != 2 {
		t.Errorf("victim after undo = %d, %v, want the original 2", v, err)
	}
	if len(k.Modules()) != 0 {
		t.Error("module leaked after undo")
	}
}

// TestFailingReverseHookKeepsUpdateApplied: a reverse hook runs inside the
// stop_machine window, so its failure must put the trampolines back and
// leave the update applied, exactly as a failing apply hook leaves the
// kernel unpatched.
func TestFailingReverseHookKeepsUpdateApplied(t *testing.T) {
	tree := hookTree()
	k := boot(t, tree)
	m := NewManager(k)
	u, err := CreateUpdate(tree, explodingHookPatch("reverse"), CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	err = m.Undo(ApplyOptions{})
	if err == nil || !strings.Contains(err.Error(), "reverse hook failed") {
		t.Fatalf("undo with exploding reverse hook: %v", err)
	}
	if v, err := baseVictim(k); err != nil || v != 3 {
		t.Errorf("victim = %d, %v, want the fixed 3 (trampoline not restored)", v, err)
	}
	if len(m.Applied()) != 1 || len(k.Modules()) != 1 {
		t.Errorf("%d updates applied, %d modules loaded; want the update still live", len(m.Applied()), len(k.Modules()))
	}
}

// TestFailingPostReverseHookStillUndoes: the original code is running
// again when a post_reverse hook fails, so Undo must still unload the
// module and pop the update before reporting the hook's error.
func TestFailingPostReverseHookStillUndoes(t *testing.T) {
	tree := hookTree()
	k := boot(t, tree)
	m := NewManager(k)
	u, err := CreateUpdate(tree, explodingHookPatch("post_reverse"), CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	err = m.Undo(ApplyOptions{})
	if err == nil || !strings.Contains(err.Error(), "post_reverse hook failed") {
		t.Fatalf("undo with exploding post_reverse hook: %v", err)
	}
	if v, err := baseVictim(k); err != nil || v != 2 {
		t.Errorf("victim = %d, %v, want the original 2", v, err)
	}
	if len(m.Applied()) != 0 || len(k.Modules()) != 0 {
		t.Errorf("%d updates applied, %d modules loaded; want none", len(m.Applied()), len(k.Modules()))
	}
}
