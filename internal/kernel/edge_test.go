package kernel

import (
	"strings"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/isa"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

func TestHeapExhaustionReturnsNull(t *testing.T) {
	files := Lib()
	files["m.mc"] = `#include "klib.h"
// Allocate until kmalloc returns NULL; a well-behaved guest sees the
// failure instead of crashing.
int hog(void) {
	int n = 0;
	while (1) {
		void *p = kmalloc(1 << 20);
		if (!p) {
			return n;
		}
		n++;
	}
	return -1;
}
`
	k, err := Boot(srctree.New("heap", files))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Call("hog")
	if err != nil {
		t.Fatal(err)
	}
	// The arena is HeapEnd-HeapBase = 4 MiB; 1 MiB blocks -> 4.
	if got != 4 {
		t.Errorf("hog allocated %d MiB blocks, want 4", got)
	}
}

func TestDoubleFreeFaults(t *testing.T) {
	files := Lib()
	files["m.mc"] = `#include "klib.h"
int doublefree(void) {
	void *p = kmalloc(32);
	kfree(p);
	kfree(p);
	return 0;
}
`
	k, err := Boot(srctree.New("df", files))
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.Call("doublefree")
	if err == nil || !strings.Contains(err.Error(), "kfree") {
		t.Errorf("double free: %v", err)
	}
}

func TestConsoleOutput(t *testing.T) {
	files := Lib()
	files["m.mc"] = `#include "klib.h"
void speak(void) {
	printk("hello ");
	kputchar('w');
	kputchar('0' + 5);
	printk("rld\n");
}
`
	k, err := Boot(srctree.New("con", files))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call("speak"); err != nil {
		t.Fatal(err)
	}
	if got := k.Console(); got != "hello w5rld\n" {
		t.Errorf("console = %q", got)
	}
}

func TestModuleTooLargeRejected(t *testing.T) {
	files := Lib()
	files["m.mc"] = `int probe_target(void) { return 1; }`
	k, err := Boot(srctree.New("big", files))
	if err != nil {
		t.Fatal(err)
	}
	// A module whose BSS would reach into the heap arena.
	huge := &obj.File{SourcePath: "huge.mc"}
	huge.AddSection(&obj.Section{Name: ".bss.huge", Kind: obj.BSS, Align: 8, Size: 32 << 20})
	huge.Symbols = []*obj.Symbol{{Name: "huge", Section: 0, Size: 32 << 20}}
	if _, err := k.LoadModule("huge", []*obj.File{huge}, nil); err == nil {
		t.Error("oversized module loaded")
	}
}

func TestCallIsolatedBudget(t *testing.T) {
	files := Lib()
	files["m.mc"] = `
int forever(void) {
	while (1) {
	}
	return 0;
}
`
	k, err := Boot(srctree.New("fv", files))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := k.Syms.ResolveUnique("forever")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CallIsolatedAddr(addr); err == nil {
		t.Error("infinite isolated call returned")
	}
	// The transient task was reaped; the kernel stays usable.
	if len(k.Tasks()) != 0 {
		t.Errorf("tasks leaked: %d", len(k.Tasks()))
	}
}

func TestStackRecycling(t *testing.T) {
	files := Lib()
	files["m.mc"] = `int quick(void) { return 7; }`
	k, err := Boot(srctree.New("sr", files))
	if err != nil {
		t.Fatal(err)
	}
	// Far more calls than the stack region could hold without recycling
	// ((16 MiB - heap end) / 64 KiB = 64 stacks).
	for i := 0; i < 500; i++ {
		if got, err := k.Call("quick"); err != nil || got != 7 {
			t.Fatalf("call %d: %d, %v", i, got, err)
		}
	}
}

// TestKernelTextFullyDecodable disassembles every function of a corpus-
// style kernel image instruction by instruction: the code generator must
// never emit a byte stream the ISA cannot decode, and every byte of every
// function must be covered by instructions (no gaps, no overlaps).
func TestKernelTextFullyDecodable(t *testing.T) {
	files := Lib()
	files["a.mc"] = `#include "klib.h"
struct box { int a; long b; char c[10]; };
static struct box boxes[4];
int touch(int i, int v) {
	if (i < 0 || i >= 4) {
		return -1;
	}
	boxes[i].a = v;
	boxes[i].b = (long)v * 3;
	boxes[i].c[0] = (char)v;
	return boxes[i].a + (int)boxes[i].b;
}
int fold(int n) {
	int acc = 0;
	int i;
	for (i = 0; i < n; i++) {
		acc += touch(i & 3, i);
		kyield();
	}
	return acc;
}
`
	k, err := Boot(srctree.New("dec", files))
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range k.Syms.All() {
		if !sym.Func || sym.Module != "" || sym.Size == 0 {
			continue
		}
		code, err := k.ReadMem(sym.Addr, int(sym.Size))
		if err != nil {
			t.Fatalf("%s: %v", sym.Name, err)
		}
		off := 0
		for off < len(code) {
			in, err := isa.Decode(code, off)
			if err != nil {
				t.Fatalf("%s+%#x: %v", sym.Name, off, err)
			}
			off += in.Len
		}
		if off != len(code) {
			t.Errorf("%s: instructions cover %d of %d bytes", sym.Name, off, len(code))
		}
	}
}

func TestBootRejectsBrokenTree(t *testing.T) {
	files := Lib()
	files["bad.mc"] = "int broken("
	if _, err := Boot(srctree.New("bad", files)); err == nil {
		t.Error("broken tree booted")
	}
	// Duplicate global across units.
	files = Lib()
	files["a.mc"] = "int dup(void) { return 1; }"
	files["b.mc"] = "int dup(void) { return 2; }"
	if _, err := Boot(srctree.New("dup", files)); err == nil {
		t.Error("duplicate global booted")
	}
}

func TestKernelBuildOptionsPreserved(t *testing.T) {
	files := Lib()
	files["m.mc"] = `int f(void) { return 1; }`
	opts := codegen.KernelBuild()
	opts.Inline = false
	br, err := srctree.BuildCached(srctree.New("opt", files), opts)
	if err != nil {
		t.Fatal(err)
	}
	im, err := srctree.LinkKernelCached(br, KernelBase)
	if err != nil {
		t.Fatal(err)
	}
	k, err := BootImage(br, im, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.Build.Options != opts {
		t.Errorf("options not preserved: %+v", k.Build.Options)
	}
	for _, f := range k.Build.Objects {
		if f.Compiler != codegen.Version {
			t.Errorf("%s compiled with %q", f.SourcePath, f.Compiler)
		}
	}
}

// TestBootGoesThroughStore: a second Boot of the same tree content
// compiles and links nothing — the build and the image come from the
// artifact store, shared with the first kernel.
func TestBootGoesThroughStore(t *testing.T) {
	files := Lib()
	files["m.mc"] = `int twice(int x) { return x * 2; }`
	k1, err := Boot(srctree.New("store-boot", files))
	if err != nil {
		t.Fatal(err)
	}
	c0 := srctree.Counters()
	k2, err := Boot(srctree.New("store-boot", files))
	if err != nil {
		t.Fatal(err)
	}
	c1 := srctree.Counters()
	if n := c1.UnitMisses - c0.UnitMisses; n != 0 {
		t.Errorf("second boot compiled %d units, want 0", n)
	}
	if n := c1.BuildMisses - c0.BuildMisses; n != 0 {
		t.Errorf("second boot built %d trees, want 0", n)
	}
	if n := c1.LinkMisses - c0.LinkMisses; n != 0 {
		t.Errorf("second boot linked %d images, want 0", n)
	}
	if k2.Build != k1.Build || k2.Image != k1.Image {
		t.Error("second boot did not reuse the stored build and image")
	}
	if got, err := k2.Call("twice", 21); err != nil || got != 42 {
		t.Errorf("twice(21) on the second kernel = %d, %v", got, err)
	}
}
