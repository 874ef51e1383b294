package kernel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

// loadTestModule loads a one-unit module named name whose functions are
// fn_<name>, returning 1000+tag, and sys_add, which shadows the base
// kernel's sys_add in kallsyms.
func loadTestModule(t *testing.T, k *Kernel, name string, tag int) *Module {
	t.Helper()
	src := fmt.Sprintf(`
int fn_%s(void) { return %d; }
int sys_add(int a, int b) { return %d; }
`, name, 1000+tag, tag)
	f, err := srctree.BuildUnit(srctree.New("m", map[string]string{"m.mc": src}), "m.mc", codegen.KspliceBuild())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.LoadModule(name, []*obj.File{f}, nil)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return mod
}

func moduleNames(k *Kernel) []string {
	var names []string
	for _, m := range k.Modules() {
		names = append(names, m.Name)
	}
	return names
}

// lookupModules lists which table each sys_add entry comes from, in
// Lookup's order ("" is the base kernel).
func lookupModules(st *SymTab) []string {
	var out []string
	for _, s := range st.Lookup("sys_add") {
		out = append(out, s.Module)
	}
	return out
}

// checkModules verifies the module list against want, in order, and
// that load order is base-address order.
func checkModules(t *testing.T, k *Kernel, want ...string) {
	t.Helper()
	if got := moduleNames(k); !slices.Equal(got, want) {
		t.Fatalf("modules = %v, want %v", got, want)
	}
	mods := k.Modules()
	for i := 1; i < len(mods); i++ {
		if mods[i].Base < mods[i-1].Base+mods[i-1].Size {
			t.Errorf("module %s at %#x is not past %s (%#x+%#x)",
				mods[i].Name, mods[i].Base, mods[i-1].Name, mods[i-1].Base, mods[i-1].Size)
		}
	}
	if got, want := lookupModules(k.Syms), append([]string{""}, want...); !slices.Equal(got, want) {
		t.Errorf("Lookup(sys_add) from %q, want %q", got, want)
	}
}

// TestUnloadOlderModule: unloading a module that is not the newest drops
// exactly its symbols and memory; the newer module keeps working, and the
// next load still goes past every live module.
func TestUnloadOlderModule(t *testing.T) {
	k := bootTest(t)
	loadTestModule(t, k, "a", 1)
	b := loadTestModule(t, k, "b", 2)
	loadTestModule(t, k, "c", 3)
	checkModules(t, k, "a", "b", "c")

	if err := k.UnloadModule("b"); err != nil {
		t.Fatal(err)
	}
	checkModules(t, k, "a", "c")
	if _, ok := k.Module("b"); ok {
		t.Error("Module(b) found after unload")
	}
	if n := len(k.Syms.Lookup("fn_b")); n != 0 {
		t.Errorf("%d fn_b symbols after unload", n)
	}
	if mem, _ := k.ReadMem(b.Base, int(b.Size)); slices.ContainsFunc(mem, func(x byte) bool { return x != 0 }) {
		t.Error("unloaded module's memory not zeroed")
	}
	for name, want := range map[string]int64{"fn_a": 1001, "fn_c": 1003} {
		if got, err := k.Call(name); err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d", name, got, err, want)
		}
	}

	d := loadTestModule(t, k, "d", 4)
	c, _ := k.Module("c")
	if d.Base < c.Base+c.Size {
		t.Errorf("d loaded at %#x, inside or below live module c (%#x+%#x)", d.Base, c.Base, c.Size)
	}
	checkModules(t, k, "a", "c", "d")
}

// TestModulesSortedAfterReload: after an interleaved unload and a reload
// under the same name, Modules() and Lookup both list modules in load
// order, which is base-address order.
func TestModulesSortedAfterReload(t *testing.T) {
	k := bootTest(t)
	loadTestModule(t, k, "a", 1)
	loadTestModule(t, k, "b", 2)
	loadTestModule(t, k, "c", 3)
	if err := k.UnloadModule("a"); err != nil {
		t.Fatal(err)
	}
	loadTestModule(t, k, "a", 5)
	checkModules(t, k, "b", "c", "a")
	if got, err := k.Call("fn_a"); err != nil || got != 1005 {
		t.Errorf("reloaded fn_a = %d, %v", got, err)
	}
	// Unloading the newest reclaims its space for the next load.
	a, _ := k.Module("a")
	if err := k.UnloadModule("a"); err != nil {
		t.Fatal(err)
	}
	if again := loadTestModule(t, k, "a", 6); again.Base != a.Base {
		t.Errorf("reload after unloading the newest at %#x, want %#x", again.Base, a.Base)
	}
	checkModules(t, k, "b", "c", "a")
}

// TestAmbiguityIgnoresModules: the census covers the base kernel's
// symbols, so a module that shares a base name leaves it unchanged.
func TestAmbiguityIgnoresModules(t *testing.T) {
	k := bootTest(t)
	before := k.Syms.Ambiguity()
	loadTestModule(t, k, "a", 1)
	if n := len(k.Syms.Lookup("sys_add")); n != 2 {
		t.Fatalf("premise: %d sys_add symbols, want the base's and the module's", n)
	}
	if after := k.Syms.Ambiguity(); after != before {
		t.Errorf("census changed by a module load: %+v -> %+v", before, after)
	}
}

// TestLookupResultIsCapped: with no module defining the name, Lookup
// returns the shared index's own slice, capped, so a caller's append
// copies rather than writing into the next name's entries.
func TestLookupResultIsCapped(t *testing.T) {
	k := bootTest(t)
	for _, s := range k.Syms.All() {
		got := k.Syms.Lookup(s.Name)
		if len(got) != cap(got) {
			t.Fatalf("Lookup(%s): len %d, cap %d", s.Name, len(got), cap(got))
		}
	}
}

// TestBaseFunc pins the resolution rules probes rely on: a base-kernel
// function resolves even at address zero, a missing or non-function name
// errors, a module's copy is ignored, and a duplicated base name errors
// instead of silently taking one copy.
func TestBaseFunc(t *testing.T) {
	st := NewSymTab(&obj.Image{Symbols: []obj.ImageSymbol{
		{Name: "zero_fn", Addr: 0, Size: 8, Func: true, File: "z.mc"},
		{Name: "plain_fn", Addr: 0x100, Size: 8, Func: true, File: "p.mc"},
		{Name: "dup_fn", Addr: 0x200, Size: 8, Func: true, File: "p.mc"},
		{Name: "dup_fn", Addr: 0x300, Size: 8, Func: true, File: "q.mc"},
		{Name: "data_sym", Addr: 0x400, Size: 4, File: "p.mc"},
	}})
	st.AddModule(&Module{Name: "mod", Image: &obj.Image{Symbols: []obj.ImageSymbol{
		{Name: "mod_fn", Addr: 0x500, Size: 8, Func: true, File: "m.mc"},
	}}})

	if addr, err := st.BaseFunc("plain_fn"); err != nil || addr != 0x100 {
		t.Errorf("plain_fn = %#x, %v", addr, err)
	}
	// Address zero is a legitimate link address, distinct from missing.
	if addr, err := st.BaseFunc("zero_fn"); err != nil || addr != 0 {
		t.Errorf("zero_fn = %#x, %v", addr, err)
	}
	for _, name := range []string{"missing_fn", "data_sym", "mod_fn", "dup_fn"} {
		if addr, err := st.BaseFunc(name); err == nil {
			t.Errorf("BaseFunc(%s) = %#x, want error", name, addr)
		}
	}
	if _, err := st.BaseFunc("dup_fn"); err == nil || !strings.Contains(err.Error(), "2 base kernel functions") {
		t.Errorf("dup_fn error does not report the duplication: %v", err)
	}
}
