package codegen

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gosplice/internal/isa"
	"gosplice/internal/minic"
	"gosplice/internal/obj"
	"gosplice/internal/vm"
)

// compileUnits parses, checks and compiles sources (path -> content) in
// deterministic path order of the units map keys given in unitOrder.
func compileUnits(t *testing.T, files map[string]string, unitOrder []string, opts Options) []*obj.File {
	t.Helper()
	provider := func(p string) (string, bool) { s, ok := files[p]; return s, ok }
	var out []*obj.File
	for _, path := range unitOrder {
		u, err := minic.Parse(path, provider)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if err := minic.Check(u); err != nil {
			t.Fatalf("check %s: %v", path, err)
		}
		f, err := Compile(u, opts)
		if err != nil {
			t.Fatalf("compile %s: %v", path, err)
		}
		out = append(out, f)
	}
	return out
}

const testBase = 0x10000

// run links files, loads the image into a fresh machine, and calls the
// named function with the given integer arguments, returning R0.
func run(t *testing.T, fs []*obj.File, name string, args ...int64) uint64 {
	t.Helper()
	m, th, im := load(t, fs)
	return callFunc(t, m, th, im, name, args...)
}

// trapTable serves each TRAP number from its own function.
type trapTable map[uint16]func(*vm.Thread) error

func (tt trapTable) Trap(num uint16, t *vm.Thread) error {
	fn, ok := tt[num]
	if !ok {
		return fmt.Errorf("unregistered trap %d", num)
	}
	return fn(t)
}

func load(t *testing.T, fs []*obj.File) (*vm.Machine, *vm.Thread, *obj.Image) {
	t.Helper()
	im, err := obj.Link(fs, obj.LinkOptions{Base: testBase})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := vm.New(1 << 20)
	m.Mem.WriteAt(im.Base, im.Bytes)
	th := &vm.Thread{}
	th.SetSP(1 << 20)
	return m, th, im
}

func callFunc(t *testing.T, m *vm.Machine, th *vm.Thread, im *obj.Image, name string, args ...int64) uint64 {
	t.Helper()
	fn, err := im.LookupOne(name)
	if err != nil {
		t.Fatal(err)
	}
	// Build a caller stub: reserve arg slots, materialize each argument,
	// call the target, halt.
	const stubAddr = 0x400
	var stub []byte
	n := int64(len(args))
	if n > 0 {
		stub = isa.Encode(stub, isa.Insn{Op: isa.OpADDI64, Rd: isa.SP, Imm: -8 * n})
	}
	for i, a := range args {
		stub = isa.Encode(stub, isa.Insn{Op: isa.OpMOVI64, Rd: isa.R0, Imm: a})
		stub = isa.Encode(stub, isa.Insn{Op: isa.OpST64, Rd: isa.SP, Disp: int32(i) * 8, Rs: isa.R0})
	}
	callEnd := stubAddr + len(stub) + isa.OpCALL.Len()
	stub = isa.Encode(stub, isa.Insn{Op: isa.OpCALL, Rel: int32(fn.Addr) - int32(callEnd)})
	if n > 0 {
		stub = isa.Encode(stub, isa.Insn{Op: isa.OpADDI64, Rd: isa.SP, Imm: 8 * n})
	}
	stub = isa.Encode(stub, isa.Insn{Op: isa.OpHLT})
	m.Mem.WriteAt(stubAddr, stub)

	th.IP = stubAddr
	th.Halted = false
	// Run returns after every TRAP; go on until the stub halts.
	for budget := 2_000_000; budget > 0 && !th.Halted; {
		n, err := m.Run(th, budget)
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		budget -= n
	}
	if !th.Halted {
		t.Fatalf("run %s: step budget exhausted", name)
	}
	return th.R[isa.R0]
}

func TestCompileAndRunFactorial(t *testing.T) {
	files := map[string]string{"f.mc": `
int fact(int n) {
	if (n <= 1) return 1;
	return n * fact(n - 1);
}
`}
	for _, opts := range []Options{KernelBuild(), KspliceBuild()} {
		fs := compileUnits(t, files, []string{"f.mc"}, opts)
		if got := run(t, fs, "fact", 10); got != 3628800 {
			t.Errorf("fact(10) = %d (FunctionSections=%v)", got, opts.ObjectSections)
		}
	}
}

func TestCompileLoopsAndArrays(t *testing.T) {
	files := map[string]string{"a.mc": `
int sum_squares(int n) {
	int acc = 0;
	int i;
	for (i = 1; i <= n; i++) {
		acc += i * i;
	}
	return acc;
}
int fib(int n) {
	int a = 0;
	int b = 1;
	while (n > 0) {
		int tmp = a + b;
		a = b;
		b = tmp;
		n--;
	}
	return a;
}
int buf_test(void) {
	char buf[16];
	int i;
	for (i = 0; i < 16; i++) buf[i] = (char)(i * 3);
	return buf[5];
}
`}
	fs := compileUnits(t, files, []string{"a.mc"}, KernelBuild())
	if got := run(t, fs, "sum_squares", 10); got != 385 {
		t.Errorf("sum_squares(10) = %d", got)
	}
	if got := run(t, fs, "fib", 20); got != 6765 {
		t.Errorf("fib(20) = %d", got)
	}
	if got := run(t, fs, "buf_test"); got != 15 {
		t.Errorf("buf_test() = %d", got)
	}
}

func TestCompileStructsAndPointers(t *testing.T) {
	files := map[string]string{"s.mc": `
struct node { int val; struct node *next; };
struct node pool[8];
int build_and_sum(int n) {
	int i;
	struct node *head = 0;
	for (i = 0; i < n; i++) {
		pool[i].val = i + 1;
		pool[i].next = head;
		head = &pool[i];
	}
	int total = 0;
	while (head) {
		total += head->val;
		head = head->next;
	}
	return total;
}
`}
	for _, opts := range []Options{KernelBuild(), KspliceBuild()} {
		fs := compileUnits(t, files, []string{"s.mc"}, opts)
		if got := run(t, fs, "build_and_sum", 8); got != 36 {
			t.Errorf("build_and_sum(8) = %d (FS=%v)", got, opts.ObjectSections)
		}
	}
}

func TestCompileGlobalsAndStatics(t *testing.T) {
	files := map[string]string{"g.mc": `
int table[4] = {10, 20, 30, 40};
static int scale = 3;
char *msg = "hey";
int counter(void) {
	static int count = 100;
	count++;
	return count;
}
int lookup(int i) { return table[i] * scale; }
int first_char(void) { char *p = msg; return p[0]; }
`}
	fs := compileUnits(t, files, []string{"g.mc"}, KernelBuild())
	m, th, im := load(t, fs)
	if got := callFunc(t, m, th, im, "lookup", 2); got != 90 {
		t.Errorf("lookup(2) = %d", got)
	}
	if got := callFunc(t, m, th, im, "counter"); got != 101 {
		t.Errorf("counter() #1 = %d", got)
	}
	if got := callFunc(t, m, th, im, "counter"); got != 102 {
		t.Errorf("counter() #2 = %d (static local not persistent)", got)
	}
	if got := callFunc(t, m, th, im, "first_char"); got != 'h' {
		t.Errorf("first_char() = %d", got)
	}
	// The static local symbol is mangled and local.
	syms := im.Lookup("counter.count")
	if len(syms) != 1 || !syms[0].Local {
		t.Errorf("counter.count symbol: %+v", syms)
	}
}

func TestCompileLongArithmetic(t *testing.T) {
	files := map[string]string{"l.mc": `
long mul64(long a, long b) { return a * b; }
int truncate_check(long v) { return (int)v; }
unsigned int udiv(unsigned int a, unsigned int b) { return a / b; }
int sdiv(int a, int b) { return a / b; }
long widen(int x) { return x; }
unsigned long uwiden(unsigned int x) { return x; }
`}
	fs := compileUnits(t, files, []string{"l.mc"}, KernelBuild())
	m, th, im := load(t, fs)
	if got := callFunc(t, m, th, im, "mul64", 1<<20, 3<<20); got != 3<<40 {
		t.Errorf("mul64 = %#x", got)
	}
	if got := callFunc(t, m, th, im, "truncate_check", 0x1_2345_6789); int32(got) != 0x2345_6789 {
		t.Errorf("truncate = %#x", got)
	}
	if got := callFunc(t, m, th, im, "udiv", -2, 3); uint32(got) != (0xFFFFFFFE)/3 {
		t.Errorf("udiv = %#x", got)
	}
	if got := callFunc(t, m, th, im, "sdiv", -9, 3); int64(got) != -3 {
		t.Errorf("sdiv = %d", int64(got))
	}
	if got := callFunc(t, m, th, im, "widen", -5); int64(got) != -5 {
		t.Errorf("widen = %d", int64(got))
	}
	// unsigned int -1 widened to unsigned long is 0xffffffff.
	if got := callFunc(t, m, th, im, "uwiden", -1); got != 0xffffffff {
		t.Errorf("uwiden = %#x", got)
	}
}

func TestCompileCrossUnitCalls(t *testing.T) {
	files := map[string]string{
		"api.h": `int helper(int x);`,
		"a.mc": `#include "api.h"
int entry(int x) { return helper(x) + 1; }`,
		"b.mc": `int helper(int x) { return x * 2; }`,
	}
	for _, opts := range []Options{KernelBuild(), KspliceBuild()} {
		fs := compileUnits(t, files, []string{"a.mc", "b.mc"}, opts)
		if got := run(t, fs, "entry", 20); got != 41 {
			t.Errorf("entry(20) = %d (FS=%v)", got, opts.ObjectSections)
		}
	}
}

func TestCompileLogicalOpsAndTernary(t *testing.T) {
	files := map[string]string{"x.mc": `
int called = 0;
int bump(void) { called++; return 1; }
int shortcircuit(int a) {
	if (a && bump()) return called;
	return 100 + called;
}
int pick(int c, int a, int b) { return c ? a : b; }
int lnot(int x) { return !x; }
`}
	fs := compileUnits(t, files, []string{"x.mc"}, KernelBuild())
	m, th, im := load(t, fs)
	if got := callFunc(t, m, th, im, "shortcircuit", 0); got != 100 {
		t.Errorf("shortcircuit(0) = %d: bump ran despite 0 &&", got)
	}
	if got := callFunc(t, m, th, im, "shortcircuit", 1); got != 1 {
		t.Errorf("shortcircuit(1) = %d", got)
	}
	if got := callFunc(t, m, th, im, "pick", 1, 42, 7); got != 42 {
		t.Errorf("pick(1,42,7) = %d", got)
	}
	if got := callFunc(t, m, th, im, "pick", 0, 42, 7); got != 7 {
		t.Errorf("pick(0,42,7) = %d", got)
	}
	if got := callFunc(t, m, th, im, "lnot", 0); got != 1 {
		t.Errorf("lnot(0) = %d", got)
	}
}

func TestInlinerInlinesSmallFunctions(t *testing.T) {
	files := map[string]string{"i.mc": `
static int min(int a, int b) { return a < b ? a : b; }
int clamp100(int v) { return min(v, 100); }
`}
	fs := compileUnits(t, files, []string{"i.mc"}, KspliceBuild())
	f := fs[0]
	// min must be inlined into clamp100 and, being static and otherwise
	// unreferenced, eliminated from the object file.
	if f.Symbol("min") != nil && f.Symbol("min").Defined() {
		t.Error("min was emitted despite being inlined everywhere")
	}
	sec := f.Section(obj.FuncSectionPrefix + "clamp100")
	if sec == nil {
		t.Fatal("no clamp100 section")
	}
	for _, r := range sec.Relocs {
		if f.Symbols[r.Sym].Name == "min" {
			t.Error("clamp100 still references min")
		}
	}
	// Behaviour intact.
	if got := run(t, fs, "clamp100", 250); got != 100 {
		t.Errorf("clamp100(250) = %d", got)
	}
	if got := run(t, fs, "clamp100", 42); got != 42 {
		t.Errorf("clamp100(42) = %d", got)
	}
}

func TestInlinedCallsCensus(t *testing.T) {
	files := map[string]string{"i.mc": `
static int twice(int a) { return a * 2; }
static inline int thrice(int a) { return a * 3; }
int big(int a) {
	int acc = 0;
	int i;
	for (i = 0; i < a; i++) acc += i;
	return acc;
}
int user(int v) { return twice(v) + thrice(v) + big(v); }
`}
	provider := func(p string) (string, bool) { s, ok := files[p]; return s, ok }
	u, err := minic.Parse("i.mc", provider)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(u); err != nil {
		t.Fatal(err)
	}
	inl := InlinedCalls(u)
	if len(inl["twice"]) != 1 || len(inl["thrice"]) != 1 {
		t.Errorf("census: %v", inl)
	}
	if len(inl["big"]) != 0 {
		t.Errorf("big inlined: %v", inl)
	}
}

func TestBranchEncodingDiffersByMode(t *testing.T) {
	files := map[string]string{"b.mc": `
int loopy(int n) {
	int acc = 0;
	while (n > 0) { acc += n; n--; }
	return acc;
}
`}
	kfs := compileUnits(t, files, []string{"b.mc"}, KernelBuild())
	sfs := compileUnits(t, files, []string{"b.mc"}, KspliceBuild())

	countShort := func(f *obj.File, secName string) (short, near int) {
		sec := f.Section(secName)
		if sec == nil {
			t.Fatalf("no section %s", secName)
		}
		for off := 0; off < len(sec.Data); {
			in, err := isa.Decode(sec.Data, off)
			if err != nil {
				t.Fatalf("decode at %d: %v", off, err)
			}
			switch in.Op {
			case isa.OpJMPS, isa.OpJCCS:
				short++
			case isa.OpJMP, isa.OpJCC:
				near++
			}
			off += in.Len
		}
		return
	}
	kShort, _ := countShort(kfs[0], ".text")
	sShort, sNear := countShort(sfs[0], obj.FuncSectionPrefix+"loopy")
	if kShort == 0 {
		t.Error("kernel build produced no short branches (relaxation broken)")
	}
	if sShort != 0 || sNear == 0 {
		t.Errorf("ksplice build: %d short, %d near branches (want all near)", sShort, sNear)
	}
	// Same behaviour either way.
	if got := run(t, kfs, "loopy", 100); got != 5050 {
		t.Errorf("loopy = %d", got)
	}
	if got := run(t, sfs, "loopy", 100); got != 5050 {
		t.Errorf("loopy (FS) = %d", got)
	}
}

func TestFunctionAlignmentInWholeTextMode(t *testing.T) {
	files := map[string]string{"m.mc": `
int one(void) { return 1; }
int two(void) { return 2; }
int three(void) { return 3; }
`}
	fs := compileUnits(t, files, []string{"m.mc"}, KernelBuild())
	for _, sym := range fs[0].Symbols {
		if sym.Func && sym.Defined() && sym.Value%16 != 0 {
			t.Errorf("function %s at offset %#x not 16-aligned", sym.Name, sym.Value)
		}
	}
}

func TestAsmStatementAndFile(t *testing.T) {
	files := map[string]string{"t.mc": `
int with_asm(int a) {
	asm("trap 42");
	return a + 1;
}
`}
	fs := compileUnits(t, files, []string{"t.mc"}, KernelBuild())
	m, th, im := load(t, fs)
	hit := false
	m.Traps = trapTable{42: func(*vm.Thread) error { hit = true; return nil }}
	if got := callFunc(t, m, th, im, "with_asm", 9); got != 10 || !hit {
		t.Errorf("with_asm = %d, trap hit = %v", got, hit)
	}

	// Whole assembly file.
	src := `
.global asm_double
.func asm_double
	push fp
	mov fp, sp
	addi64 sp, 0
	ld64 r0, [fp+16]
	movi r1, 2
	mul32 r0, r1
	mov sp, fp
	pop fp
	ret
.endfunc
`
	for _, opts := range []Options{KernelBuild(), KspliceBuild()} {
		af, err := AssembleFile("entry.mcs", src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(t, []*obj.File{af}, "asm_double", 21); got != 42 {
			t.Errorf("asm_double(21) = %d", got)
		}
	}
}

func TestAsmErrors(t *testing.T) {
	cases := []string{
		".func f\n bogus r0\n.endfunc",
		".func f\n movi r9, 1\n.endfunc",
		".func f\n ret",
		"ret",
	}
	for _, src := range cases {
		if _, err := AssembleFile("bad.mcs", src, KernelBuild()); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	// A .global must name a function the file defines; every error
	// names the line of the statement at fault.
	located := []struct{ src, want string }{
		{".global g\n.func f\n ret\n.endfunc", `bad.mcs:1: asm ".global g": no .func defines g`},
		{".global f\n.func f\n movi r0, 1\n\n // spacer\n bogus r0\n ret\n.endfunc", `bad.mcs:6: asm "bogus r0": unknown mnemonic "bogus"`},
		{".func f\n ret; nop; movi r9, 1\n.endfunc", `bad.mcs:2: asm "movi r9, 1"`},
		{".func f\n ret\n.endfunc\n.func g\n ret", "bad.mcs:4: unterminated .func g"},
	}
	for _, c := range located {
		_, err := AssembleFile("bad.mcs", c.src, KernelBuild())
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("AssembleFile(%q) = %v, want an error starting %q", c.src, err, c.want)
		}
	}
	_, err := AssembleFile("bad.mcs", ".global g\n.func f\n ret\n.endfunc", KernelBuild())
	var ae *asmError
	if !errors.As(err, &ae) || !strings.Contains(ae.Error(), `".global g"`) {
		t.Errorf("undefined .global: got %v, want an *asmError naming .global g", err)
	}
}

func TestFunctionPointerDispatch(t *testing.T) {
	files := map[string]string{"fp.mc": `
int add_one(int n) { return n + 1; }
int add_two(int n) { return n + 2; }
void *ops[2] = { add_one, add_two };
int dispatch(int idx, int v) {
	void *fn = ops[idx];
	return fn(v);
}
`}
	fs := compileUnits(t, files, []string{"fp.mc"}, KernelBuild())
	m, th, im := load(t, fs)
	if got := callFunc(t, m, th, im, "dispatch", 0, 10); got != 11 {
		t.Errorf("dispatch(0,10) = %d", got)
	}
	if got := callFunc(t, m, th, im, "dispatch", 1, 10); got != 12 {
		t.Errorf("dispatch(1,10) = %d", got)
	}
}

func TestPrototypeChangeChangesCallers(t *testing.T) {
	// The paper's section 3.1 example: changing a prototyped parameter
	// from int to long changes callers' object code through implicit
	// casting, with no source change to the callers.
	mk := func(argType string) *obj.File {
		files := map[string]string{
			"proto.h": `int target(` + argType + ` v);`,
			"caller.mc": `#include "proto.h"
int caller(int x) { return target(x); }`,
		}
		fs := compileUnits(t, files, []string{"caller.mc"}, KspliceBuild())
		return fs[0]
	}
	withInt := mk("int")
	withLong := mk("long")
	a := withInt.Section(obj.FuncSectionPrefix + "caller")
	b := withLong.Section(obj.FuncSectionPrefix + "caller")
	if a == nil || b == nil {
		t.Fatal("caller sections missing")
	}
	if string(a.Data) == string(b.Data) {
		t.Error("caller object code identical despite prototype change")
	}
}

func TestKspliceHookSections(t *testing.T) {
	files := map[string]string{"h.mc": `
int fixed_count = 0;
void do_fix(void) { fixed_count = 1; }
void undo_fix(void) { fixed_count = 0; }
ksplice_apply(do_fix);
ksplice_reverse(undo_fix);
`}
	fs := compileUnits(t, files, []string{"h.mc"}, KspliceBuild())
	f := fs[0]
	ap := f.Section(".ksplice.apply")
	rv := f.Section(".ksplice.reverse")
	if ap == nil || rv == nil {
		t.Fatal("hook sections missing")
	}
	if len(ap.Data) != 4 || len(ap.Relocs) != 1 {
		t.Errorf("apply section: %d bytes, %d relocs", len(ap.Data), len(ap.Relocs))
	}
	if f.Symbols[ap.Relocs[0].Sym].Name != "do_fix" {
		t.Errorf("apply hook points at %q", f.Symbols[ap.Relocs[0].Sym].Name)
	}
	if ap.Kind != obj.Note {
		t.Error("hook section not Note kind")
	}
}

func TestDeterministicOutput(t *testing.T) {
	files := map[string]string{"d.mc": `
struct s { int a; long b; };
static struct s gs;
static char *names[2] = { "alpha", "beta" };
int f(int i) { return names[i][0] + gs.a; }
int g(void) { static int z = 7; return z++; }
`}
	var blobs []string
	for i := 0; i < 3; i++ {
		fs := compileUnits(t, files, []string{"d.mc"}, KernelBuild())
		var sb strings.Builder
		if err := fs[0].Write(&sb); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, sb.String())
	}
	if blobs[0] != blobs[1] || blobs[1] != blobs[2] {
		t.Error("compilation is not deterministic")
	}
}
