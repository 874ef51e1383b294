package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/diffutil"
	"gosplice/internal/isa"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

// loopyTree builds a kernel whose functions contain loops and tail
// branches, maximizing encoding divergence between the relaxed run build
// and the function-sections pre build.
func loopyTree() *srctree.Tree {
	files := kernel.Lib()
	files["loopy.mc"] = `
int inner(int n) {
	int acc = 0;
	while (n > 0) {
		acc += n;
		n--;
	}
	return acc;
}
int outer(int n) {
	int total = 0;
	int j;
	for (j = 0; j < n; j++) {
		total += inner(j);
	}
	return total;
}
`
	return srctree.New("loopy-1.0", files)
}

func TestRunPreJumpEncodings(t *testing.T) {
	tree := loopyTree()
	k := boot(t, tree)

	helper, err := srctree.BuildUnit(tree, "loopy.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}

	// Premise: the pre build has no short branches; the run build has
	// some. The matcher must unify them anyway.
	countShort := func(code []byte) int {
		n := 0
		for off := 0; off < len(code); {
			in, err := isa.Decode(code, off)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if in.Op == isa.OpJMPS || in.Op == isa.OpJCCS {
				n++
			}
			off += in.Len
		}
		return n
	}
	preSec := helper.Section(obj.FuncSectionPrefix + "inner")
	if preSec == nil {
		t.Fatal("no pre section")
	}
	if n := countShort(preSec.Data); n != 0 {
		t.Fatalf("pre build has %d short branches", n)
	}
	sym, err := k.Syms.ResolveUnique("inner")
	if err != nil {
		t.Fatal(err)
	}
	runBytes, err := k.ReadMem(sym, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Count up to the first RET to stay inside the function.
	end := 0
	for off := 0; off < len(runBytes); {
		in, err := isa.Decode(runBytes, off)
		if err != nil {
			break
		}
		off += in.Len
		if in.Op == isa.OpRET {
			end = off
			break
		}
	}
	if n := countShort(runBytes[:end]); n == 0 {
		t.Fatal("run build has no short branches; premise broken")
	}

	// The match must succeed despite the encoding differences.
	k.Lock()
	res, err := MatchUnit(k.LockedMem(), k.Syms, helper)
	k.Unlock()
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	if res.BytesMatched == 0 {
		t.Error("nothing matched")
	}
	if _, ok := res.Anchors["inner"]; !ok {
		t.Error("inner not anchored")
	}
	if _, ok := res.Anchors["outer"]; !ok {
		t.Error("outer not anchored")
	}
	// Inference recovered the cross-function call target.
	if got := res.Vals["inner"]; got != sym {
		t.Errorf("inferred inner = %#x, want %#x", got, sym)
	}
}

func TestRunPreMatchSelfConsistencyAcrossCorpusUnits(t *testing.T) {
	// Property: for every unit of the core test tree, the pre object
	// matches the running kernel built from the same source.
	tree := testTree()
	k := boot(t, tree)
	k.Lock()
	mem := k.LockedMem()
	k.Unlock()
	for _, unit := range tree.Units() {
		helper, err := srctree.BuildUnit(tree, unit, codegen.KspliceBuild())
		if err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
		res, err := MatchUnit(mem, k.Syms, helper)
		if err != nil {
			t.Errorf("%s: %v", unit, err)
			continue
		}
		// Every defined function must be anchored.
		for _, sym := range helper.Symbols {
			if sym.Func && sym.Defined() {
				if _, ok := res.Anchors[sym.Name]; !ok {
					t.Errorf("%s: %s not anchored", unit, sym.Name)
				}
			}
		}
	}
}

func TestRunPreMismatchErrorsAreDiagnosable(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)

	// Build a helper from subtly different source.
	wrong := testTree()
	wrong.Files["sys.mc"] = strings.Replace(wrong.Files["sys.mc"], "return secret;", "return secret + 2;", 1)
	helper, err := srctree.BuildUnit(wrong, "sys.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	k.Lock()
	_, err = MatchUnit(k.LockedMem(), k.Syms, helper)
	k.Unlock()
	if !errors.Is(err, ErrRunPreMismatch) {
		t.Fatalf("err = %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "sys_getsecret") {
		t.Errorf("error does not name the mismatching function: %s", msg)
	}
	if !strings.Contains(msg, "candidate") {
		t.Errorf("error does not show candidate detail: %s", msg)
	}
}

func TestSafetyCheckCatchesStackReturnAddress(t *testing.T) {
	// A thread is parked inside a callee; its stack holds a return
	// address into the function being patched. The IP check alone would
	// miss it; the conservative stack scan must refuse the splice.
	files := kernel.Lib()
	files["chain.mc"] = `#include "klib.h"
int chain_flag = 1;
int blocker(void) {
	int beats = 0;
	while (chain_flag) {
		beats++;
		kyield();
	}
	return beats;
}
int outer_victim(int x) {
	int r = blocker();
	return r + x;
}
`
	tree := srctree.New("chain-1.0", files)
	k := boot(t, tree)
	m := NewManager(k)

	task, err := k.Spawn("chained", "outer_victim", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	k.RunSteps(5_000)
	if !task.Runnable() {
		t.Fatal("premise: chained task died")
	}
	// Premise: the thread's IP is parked below outer_victim (in blocker
	// or kyield), so only the stack scan can see the pending return into
	// the function being patched.
	if sym, ok := k.Syms.FuncAt(task.Th.IP); ok && sym.Name == "outer_victim" {
		t.Fatalf("premise: thread IP %#x still inside outer_victim", task.Th.IP)
	}

	patch := `--- a/chain.mc
+++ b/chain.mc
@@ -9,6 +9,6 @@
 	return beats;
 }
 int outer_victim(int x) {
 	int r = blocker();
-	return r + x;
+	return r + x + 1;
 }
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Apply(u, ApplyOptions{})
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("apply with return address on stack: %v", err)
	}

	// Drain the blocker; now the same update applies.
	addr, _ := k.Syms.ResolveUnique("chain_flag")
	if err := k.WriteMem(addr, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	k.RunSteps(200_000)
	k.ReapExited()
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatalf("apply after drain: %v", err)
	}
	fn, _ := baseFuncAddr(k, "outer_victim")
	if got, err := k.CallIsolatedAddr(fn, 5); err != nil || got != 6 {
		t.Errorf("outer_victim = %d, %v (blocker exits immediately now)", got, err)
	}
}

func TestUndoRefusedWhileReplacementRunning(t *testing.T) {
	// After an update, a thread parks inside the *replacement* code; undo
	// must refuse until it leaves.
	files := kernel.Lib()
	files["spin2.mc"] = `#include "klib.h"
int spin2_flag = 1;
int spin2_body(void) {
	int beats = 0;
	while (spin2_flag) {
		beats++;
		kyield();
	}
	return beats;
}
`
	tree := srctree.New("spin2-1.0", files)
	k := boot(t, tree)
	m := NewManager(k)

	patch := `--- a/spin2.mc
+++ b/spin2.mc
@@ -3,7 +3,7 @@
 int spin2_body(void) {
 	int beats = 0;
 	while (spin2_flag) {
-		beats++;
+		beats += 3;
 		kyield();
 	}
 	return beats;
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	spinAddr, ok := baseFuncAddr(k, "spin2_body")
	if !ok {
		t.Fatal("no base spin2_body")
	}
	task, err := k.SpawnAt("spin2", spinAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	k.RunSteps(10_000)
	if !task.Runnable() {
		t.Fatal("spinner died")
	}
	// The spinner executes replacement code (its IP may be parked inside
	// kyield, but its stack then holds a return address into the
	// replacement loop — either way the safety check must refuse).

	if err := m.Undo(ApplyOptions{}); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("undo with thread in replacement: %v", err)
	}

	addr, _ := k.Syms.ResolveUnique("spin2_flag")
	if err := k.WriteMem(addr, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	k.RunSteps(200_000)
	k.ReapExited()
	if err := m.Undo(ApplyOptions{}); err != nil {
		t.Fatalf("undo after drain: %v", err)
	}
}

// skewedStackTree ships an assembly entry that moves sp by skew bytes
// before calling skew_outer, which lives in its own unit and calls a
// spinner parked in a kyield loop. With skew 4 every return address below
// the entry sits in a slot at 4 mod 8.
func skewedStackTree(skew int) *srctree.Tree {
	files := kernel.Lib()
	files["skew_entry.mcs"] = fmt.Sprintf(`.global skew_entry
.func skew_entry
	push fp
	mov fp, sp
	addi64 sp, %d
	call skew_outer
	mov sp, fp
	pop fp
	ret
.endfunc
`, -skew)
	files["skew_spin.mc"] = `#include "klib.h"
int skew_flag = 1;
int skew_spin(void) {
	while (skew_flag) {
		kyield();
	}
	return 0;
}
`
	files["skew_outer.mc"] = skewOuter
	return srctree.New("skew-1.0", files)
}

const skewOuter = `int skew_spin(void);
int skew_outer(void) {
	return skew_spin() + 1;
}
`

// TestSafetyCheckSeesEveryStackAlignment: hand-written assembly can leave
// sp at any offset, so the return address into a patched function may
// sit at 4 mod 8. Both Apply and Undo must still refuse while a thread
// has such a return address pending.
func TestSafetyCheckSeesEveryStackAlignment(t *testing.T) {
	patch := diffutil.DiffFiles("skew_outer.mc", skewOuter, strings.Replace(skewOuter, "+ 1;", "+ 2;", 1))
	for _, skew := range []int{0, 4} {
		t.Run(fmt.Sprintf("skew%d", skew), func(t *testing.T) {
			tree := skewedStackTree(skew)
			k := boot(t, tree)
			m := NewManager(k)
			u, err := CreateUpdate(tree, patch, CreateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			flag := mustAddr(t, k, "skew_flag")
			park := func() *kernel.Task {
				t.Helper()
				if err := k.WriteMem(flag, []byte{1, 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
				task, err := k.Spawn("skewed", "skew_entry", 0)
				if err != nil {
					t.Fatal(err)
				}
				k.RunSteps(10_000)
				if !task.Runnable() {
					t.Fatal("premise: skewed task died")
				}
				if sym, ok := k.Syms.FuncAt(task.Th.IP); ok && sym.Name == "skew_outer" {
					t.Fatalf("premise: IP %#x inside skew_outer", task.Th.IP)
				}
				if got := task.Th.SP() & 7; got != uint32(skew) {
					t.Fatalf("premise: sp %% 8 = %d, want %d", got, skew)
				}
				return task
			}
			release := func(task *kernel.Task, want int) {
				t.Helper()
				if err := k.WriteMem(flag, []byte{0, 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
				k.RunSteps(200_000)
				if task.Runnable() || task.ExitCode != int64(want) {
					t.Fatalf("skewed task runnable=%v exit=%d, want exit %d", task.Runnable(), task.ExitCode, want)
				}
				k.ReapExited()
			}

			task := park()
			if _, err := m.Apply(u, ApplyOptions{}); !errors.Is(err, ErrNotQuiescent) {
				t.Fatalf("apply with a return address into skew_outer on the stack: %v", err)
			}
			release(task, 1)
			if _, err := m.Apply(u, ApplyOptions{}); err != nil {
				t.Fatalf("apply after drain: %v", err)
			}

			// A second thread enters the replacement the same way.
			task = park()
			if err := m.Undo(ApplyOptions{}); !errors.Is(err, ErrNotQuiescent) {
				t.Fatalf("undo with a return address into the replacement on the stack: %v", err)
			}
			release(task, 2)
			if err := m.Undo(ApplyOptions{}); err != nil {
				t.Fatalf("undo after drain: %v", err)
			}
		})
	}
}

func TestKallsymsFallbackForUnreferencedLocal(t *testing.T) {
	// The replacement code references a static variable that no pre code
	// of the unit touches, so run-pre inference has no value for it; the
	// resolver falls back to kallsyms, which works because the name is
	// unambiguous.
	files := kernel.Lib()
	files["orphan.mc"] = `
static int orphan_counter = 41;
int orphan_fn(int x) {
	return x * 2;
}
`
	tree := srctree.New("orphan-1.0", files)
	k := boot(t, tree)
	m := NewManager(k)

	patch := `--- a/orphan.mc
+++ b/orphan.mc
@@ -1,5 +1,6 @@

 static int orphan_counter = 41;
 int orphan_fn(int x) {
+	orphan_counter++;
 	return x * 2;
 }
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// The patched function increments the live counter.
	addrVar, err := k.Syms.ResolveUnique("orphan_counter")
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := baseFuncAddr(k, "orphan_fn")
	if _, err := k.CallIsolatedAddr(fn, 3); err != nil {
		t.Fatal(err)
	}
	v, err := k.ReadWord(addrVar)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("orphan_counter = %d, want 42", v)
	}
}

func baseFuncAddr(k *kernel.Kernel, name string) (uint32, bool) {
	var addr uint32
	for _, s := range k.Syms.Lookup(name) {
		if s.Func && s.Module == "" {
			addr = s.Addr
		}
	}
	return addr, addr != 0
}

// TestDynAMOSStyleNonQuiescentUpdate reproduces the section 7.1 remark:
// Ksplice's hooks let a programmer apply the DynAMOS method for updating
// a non-quiescent function — here, a pre_apply hook asks the spinning
// thread to drain (guest code cooperates), so the splice finds the
// function quiescent.
func TestDynAMOSStyleNonQuiescentUpdate(t *testing.T) {
	files := kernel.Lib()
	files["daemon.mc"] = `#include "klib.h"
int daemon_generation = 0;
int daemon_drain = 0;
int daemon_loops = 0;

int daemon_body(void) {
	int beats = 0;
	while (!daemon_drain) {
		beats++;
		daemon_loops = beats;
		kyield();
	}
	return beats;
}
`
	tree := srctree.New("daemon-1.0", files)
	k := boot(t, tree)
	m := NewManager(k)

	if _, err := k.Spawn("daemon", "daemon_body", 0); err != nil {
		t.Fatal(err)
	}
	k.RunSteps(10_000)

	// The patch changes the daemon loop AND ships the programmer's
	// custom code: a pre_apply hook that signals the drain flag. The
	// synchronous scheduler runs the daemon out during retries.
	patch := `--- a/daemon.mc
+++ b/daemon.mc
@@ -6,9 +6,14 @@
 int daemon_body(void) {
 	int beats = 0;
 	while (!daemon_drain) {
-		beats++;
+		beats += 2;
 		daemon_loops = beats;
 		kyield();
 	}
 	return beats;
 }
+
+void daemon_request_drain(void) {
+	daemon_drain = 1;
+}
+ksplice_pre_apply(daemon_request_drain);
`
	u, err := CreateUpdate(tree, patch, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The hook flips the flag before stop_machine; the daemon needs to be
	// scheduled once more to leave the function, which the retry loop's
	// delay allows (background CPUs); in synchronous mode we drive it
	// between attempts by running steps from another goroutine-free path:
	// use background CPUs for realism.
	k.StartCPUs(1)
	defer k.StopCPUs()
	if _, err := m.Apply(u, ApplyOptions{}); err != nil {
		t.Fatalf("DynAMOS-style apply: %v", err)
	}
	k.ReapExited()

	// New invocations run the replacement (drain flag already set: the
	// body returns immediately with beats == 0).
	fn, _ := baseFuncAddr(k, "daemon_body")
	got, err := k.CallIsolatedAddr(fn)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("patched daemon_body = %d, want 0", got)
	}
}

// dupeKernel boots a kernel with two exported functions whose bodies are
// identical except for which file-local global they load. Together with a
// hand-built symbol table that gives both the same name, they model the
// genuinely ambiguous case of section 4.1: one pre function, two run
// locations that both match it.
func dupeKernel(t *testing.T) (k *kernel.Kernel, helper *obj.File) {
	t.Helper()
	files := kernel.Lib()
	files["a.mc"] = `
int gva = 111;
int dupe_a(int n) {
	int v = gva;
	return v + n;
}
`
	files["b.mc"] = `
int gvb = 222;
int dupe_b(int n) {
	int v = gvb;
	return v + n;
}
`
	tree := srctree.New("dupe-1.0", files)
	k = boot(t, tree)

	pre := srctree.New("dupe-1.0", map[string]string{"dupe.mc": `
int gv = 111;
int dupe_fn(int n) {
	int v = gv;
	return v + n;
}
`})
	helper, err := srctree.BuildUnit(pre, "dupe.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	return k, helper
}

// TestRunPreAmbiguousTwoCandidates: when two run locations both match a
// pre function, the matcher must report the ambiguity rather than quietly
// taking the first. The regression mode: committing the first candidate's
// inferences before trying the second manufactures an inference conflict
// (gv is inferred at a different address per candidate) that wrongly
// eliminates the second candidate and turns a true ambiguity into a
// silent unique match.
func TestRunPreAmbiguousTwoCandidates(t *testing.T) {
	k, helper := dupeKernel(t)
	k.Lock()
	mem := k.LockedMem()
	k.Unlock()

	var syms []kernel.Sym
	for _, name := range []string{"dupe_a", "dupe_b"} {
		found := k.Syms.Lookup(name)
		if len(found) != 1 || !found[0].Func {
			t.Fatalf("kallsyms %s: %v", name, found)
		}
		syms = append(syms, found[0])
	}

	// Sanity: against a symtab holding only one candidate, the pre
	// function matches it and infers its global.
	for i, s := range syms {
		st := kernel.NewSymTab(&obj.Image{Symbols: []obj.ImageSymbol{
			{Name: "dupe_fn", Addr: s.Addr, Size: s.Size, Func: true, File: s.Owner},
		}})
		res, err := MatchUnit(mem, st, helper)
		if err != nil {
			t.Fatalf("candidate %d alone: %v", i, err)
		}
		if res.Anchors["dupe_fn"].Addr != s.Addr {
			t.Fatalf("candidate %d alone: anchored at %#x, want %#x", i, res.Anchors["dupe_fn"].Addr, s.Addr)
		}
	}

	// Both candidates under one name: must be reported as ambiguous.
	st := kernel.NewSymTab(&obj.Image{Symbols: []obj.ImageSymbol{
		{Name: "dupe_fn", Addr: syms[0].Addr, Size: syms[0].Size, Func: true, File: syms[0].Owner},
		{Name: "dupe_fn", Addr: syms[1].Addr, Size: syms[1].Size, Func: true, File: syms[1].Owner},
	}})
	_, err := MatchUnit(mem, st, helper)
	if !errors.Is(err, ErrRunPreMismatch) {
		t.Fatalf("two matching candidates: err = %v, want run-pre mismatch", err)
	}
	if !strings.Contains(err.Error(), "2 distinct run locations") {
		t.Fatalf("ambiguity not reported: %v", err)
	}
	// The abort must be actionable: every matching candidate's address
	// and owner appears in the error detail.
	for i, s := range syms {
		if !strings.Contains(err.Error(), fmt.Sprintf("candidate %#x (%s): matches", s.Addr, s.Owner)) {
			t.Errorf("ambiguity error omits candidate %d at %#x:\n%v", i, s.Addr, err)
		}
	}
}

// TestRunPreTruncatedMemoryNeverPanics sweeps a truncation boundary
// through the run code of a matched unit: every cut must produce a clean
// ErrRunPreMismatch (or, past the unit's extent, possibly a match), never
// a panic or a foreign error.
func TestRunPreTruncatedMemoryNeverPanics(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	helper, err := srctree.BuildUnit(tree, "sys.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	k.Lock()
	mem := k.LockedMem()
	k.Unlock()
	if _, err := MatchUnit(mem, k.Syms, helper); err != nil {
		t.Fatalf("premise: full memory does not match: %v", err)
	}

	for _, s := range k.Syms.All() {
		if !s.Func || s.Owner != "sys.mc" {
			continue
		}
		// Matching needs the run bytes through the function's final RET;
		// anything after that is alignment padding a truncation may
		// legitimately cut. Find that boundary.
		needEnd := int(s.Addr)
		for off := int(s.Addr); off < int(s.Addr+s.Size); {
			if n := mem.SkipNops(off); n != off {
				off = n
				continue
			}
			in, err := mem.DecodeAt(off)
			if err != nil {
				break
			}
			off += in.Len
			needEnd = off
			if in.Op == isa.OpRET {
				break
			}
		}
		// Any cut strictly inside the needed bytes leaves the function
		// unmatchable; every cut in the padded tail must still be clean.
		for cut := s.Addr + 1; cut <= s.Addr+s.Size; cut++ {
			_, err := MatchUnit(mem.Truncate(int(cut)), k.Syms, helper)
			if err == nil {
				if int(cut) < needEnd {
					t.Fatalf("%s truncated at %#x (needs bytes to %#x): match succeeded", s.Name, cut, needEnd)
				}
				continue
			}
			if !errors.Is(err, ErrRunPreMismatch) {
				t.Fatalf("%s truncated at %#x: err = %v, want run-pre mismatch", s.Name, cut, err)
			}
		}
	}
}

// TestRunPreRelocFieldOverrunIsMismatch: a (corrupt) relocation whose
// field extends past its instruction must be rejected as a mismatch, not
// read bytes beyond the instruction — which, at the end of memory, was an
// out-of-range panic.
func TestRunPreRelocFieldOverrunIsMismatch(t *testing.T) {
	tree := testTree()
	k := boot(t, tree)
	helper, err := srctree.BuildUnit(tree, "sys.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	sec := helper.Section(obj.FuncSectionPrefix + "sys_getsecret")
	if sec == nil {
		t.Fatal("no pre section for sys_getsecret")
	}
	// Find the first absolute relocation and the instruction holding it,
	// then push the relocation to the instruction's last byte so the
	// 4-byte field overruns it.
	moved := false
	for ri := range sec.Relocs {
		r := &sec.Relocs[ri]
		if r.Type != obj.RelAbs32 {
			continue
		}
		for off := 0; off < len(sec.Data); {
			in, err := isa.Decode(sec.Data, off)
			if err != nil {
				t.Fatalf("pre decode at %#x: %v", off, err)
			}
			if r.Offset >= uint32(off) && r.Offset < uint32(off+in.Len) {
				r.Offset = uint32(off + in.Len - 1)
				moved = true
				break
			}
			off += in.Len
		}
		break
	}
	if !moved {
		t.Fatal("no absolute relocation found in sys_getsecret")
	}
	k.Lock()
	mem := k.LockedMem()
	k.Unlock()
	_, err = MatchUnit(mem, k.Syms, helper)
	if !errors.Is(err, ErrRunPreMismatch) {
		t.Fatalf("overrunning relocation field: err = %v, want run-pre mismatch", err)
	}
}
