package codegen

import (
	"strings"
	"testing"

	"gosplice/internal/minic"
	"gosplice/internal/obj"
)

// layoutMiniC and layoutAsm define the same three functions, of sizes
// that are not multiples of 16, one MiniC and one assembly; "three" is
// file-local in both.
const layoutMiniC = `
int one(void) { return 1; }
static int three(int x) { while (x > 0) x--; return x; }
int two(int x) { return x + one() + three(x); }
`

const layoutAsm = `.global one
.global two
.func one
	movi r0, 1
	ret
.endfunc
.func three
loop:
	cmpi64 r1, 0
	jcc le, out
	addi64 r1, -1
	jmp loop
out:
	mov r0, r1
	ret
.endfunc
.func two
	call one
	call three
	ret
.endfunc
`

func compileLayout(t *testing.T, lang string, opts Options) *obj.File {
	t.Helper()
	if lang == "asm" {
		f, err := AssembleFile("l.mcs", layoutAsm, opts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return compileUnits(t, map[string]string{"l.mc": layoutMiniC}, []string{"l.mc"}, opts)[0]
}

// TestTextLayoutOnePath: MiniC and .mcs functions get the one text
// layout under each preset. KspliceBuild gives each function its own
// .text.<name> section, covered by its symbol from offset 0; KernelBuild
// puts them all in one .text, each starting on a 16-byte boundary after
// the end of the one before. A function defined twice is refused with
// the same error under both presets, from the assembler and from the
// compiler alike (the MiniC checker refuses a redefinition first, so the
// compiler's case joins two checked units).
func TestTextLayoutOnePath(t *testing.T) {
	for _, preset := range []struct {
		name string
		opts Options
	}{{"kernel", KernelBuild()}, {"ksplice", KspliceBuild()}} {
		for _, lang := range []string{"minic", "asm"} {
			f := compileLayout(t, lang, preset.opts)
			var text []string
			for _, sec := range f.Sections {
				if sec.Kind == obj.Text {
					text = append(text, sec.Name)
				}
			}
			var end uint32
			for _, name := range []string{"one", "three", "two"} {
				sym := f.Symbol(name)
				if sym == nil || !sym.Defined() || !sym.Func {
					t.Fatalf("%s/%s: %s is not a defined function: %+v", lang, preset.name, name, sym)
				}
				if sym.Local != (name == "three") {
					t.Errorf("%s/%s: %s local=%v", lang, preset.name, name, sym.Local)
				}
				sec := f.Sections[sym.Section]
				if preset.opts.ObjectSections {
					if sec.Name != obj.FuncSectionPrefix+name || sym.Value != 0 || sym.Size != sec.Len() {
						t.Errorf("%s/%s: %s in %s at %d size %d, section len %d",
							lang, preset.name, name, sec.Name, sym.Value, sym.Size, sec.Len())
					}
					continue
				}
				if sec.Name != obj.TextSection || sym.Value%16 != 0 || sym.Value < end || sym.Value-end >= 16 {
					t.Errorf("%s/%s: %s in %s at %#x, previous function ends at %#x",
						lang, preset.name, name, sec.Name, sym.Value, end)
				}
				end = sym.Value + sym.Size
				if name == "two" && end != sec.Len() {
					t.Errorf("%s/%s: last function ends at %#x, .text is %#x long", lang, preset.name, end, sec.Len())
				}
			}
			want := []string{obj.TextSection}
			if preset.opts.ObjectSections {
				want = []string{".text.one", ".text.three", ".text.two"}
			}
			if strings.Join(text, " ") != strings.Join(want, " ") {
				t.Errorf("%s/%s: text sections %v, want %v", lang, preset.name, text, want)
			}
		}

		const dup = `codegen: d: duplicate function "f"`
		asm := ".global f\n.func f\n ret\n.endfunc\n.func f\n ret\n.endfunc"
		if _, err := AssembleFile("d", asm, preset.opts); err == nil || err.Error() != dup {
			t.Errorf("asm/%s: %v, want %s", preset.name, err, dup)
		}
		var u *minic.Unit
		for range 2 {
			v, err := minic.ParseString("d", "int f(void) { return 1; }")
			if err == nil {
				err = minic.Check(v)
			}
			if err != nil {
				t.Fatal(err)
			}
			if u == nil {
				u = v
			} else {
				u.Funcs = append(u.Funcs, v.Funcs...)
			}
		}
		if _, err := Compile(u, preset.opts); err == nil || err.Error() != dup {
			t.Errorf("minic/%s: %v, want %s", preset.name, err, dup)
		}
	}
}
