// Command sim-objdump inspects SOF object files, Ksplice update tarballs,
// and booted kernel images: sections, symbols, relocations, and SIM32
// disassembly.
//
//	sim-objdump file.sof                      # dump an object file
//	sim-objdump -update ksplice-xxxx.tar      # dump an update's payloads
//	sim-objdump -boot sim-2.6.16-deb -fn sys_prctl   # disassemble live code
package main

import (
	"flag"
	"fmt"
	"os"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/isa"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
)

func main() {
	update := flag.Bool("update", false, "treat the argument as an update tarball")
	boot := flag.String("boot", "", "boot this corpus release and disassemble from memory")
	fn := flag.String("fn", "", "with -boot: function to disassemble (default: all)")
	flag.Parse()

	switch {
	case *boot != "":
		dumpKernel(*boot, *fn)
	case *update:
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: sim-objdump -update file.tar"))
		}
		dumpUpdate(flag.Arg(0))
	default:
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: sim-objdump file.sof"))
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		of, err := obj.Read(f)
		if err != nil {
			fatal(err)
		}
		dumpFile(of)
	}
}

func dumpFile(f *obj.File) {
	fmt.Printf("object %s (compiler %s)\n", f.SourcePath, f.Compiler)
	fmt.Printf("symbols:\n")
	for _, s := range f.Symbols {
		bind := "global"
		if s.Local {
			bind = "local "
		}
		kind := "object"
		if s.Func {
			kind = "func  "
		}
		if !s.Defined() {
			fmt.Printf("  UND    %s %s %s\n", bind, kind, s.Name)
			continue
		}
		fmt.Printf("  %-6s %s %s %s+%#x size %d\n",
			f.Sections[s.Section].Kind, bind, kind, s.Name, s.Value, s.Size)
	}
	for _, sec := range f.Sections {
		fmt.Printf("\nsection %s (%s, %d bytes, align %d)\n", sec.Name, sec.Kind, sec.Len(), sec.Align)
		if sec.Kind == obj.Text {
			disasmSection(sec, f)
		}
		for _, r := range sec.Relocs {
			fmt.Printf("  reloc +%#04x %-5s %s%+d\n", r.Offset, r.Type, f.Symbols[r.Sym].Name, r.Addend)
		}
	}
}

func disasmSection(sec *obj.Section, f *obj.File) {
	relocAt := map[int]obj.Reloc{}
	for _, r := range sec.Relocs {
		relocAt[int(r.Offset)] = r
	}
	for off := 0; off < len(sec.Data); {
		in, err := isa.Decode(sec.Data, off)
		if err != nil {
			fmt.Printf("  %04x: ?? %v\n", off, err)
			return
		}
		note := ""
		for i := off; i < off+in.Len; i++ {
			if r, ok := relocAt[i]; ok {
				note = fmt.Sprintf("   ; %s %s%+d", r.Type, f.Symbols[r.Sym].Name, r.Addend)
			}
		}
		fmt.Printf("  %04x: %-28s%s\n", off, in.String(), note)
		off += in.Len
	}
}

func dumpUpdate(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	u, err := core.ReadTar(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("update %s for kernel %s (compiler %s, patch %d lines)\n",
		u.Name, u.KernelVersion, u.Compiler, u.PatchLines)
	for _, uu := range u.Units {
		fmt.Printf("\n== unit %s: patched=%v new=%v", uu.Path, uu.Patched, uu.New)
		if len(uu.DataInitChanges) > 0 {
			fmt.Printf(" DATA-INIT-CHANGES=%v", uu.DataInitChanges)
		}
		fmt.Println(" ==")
		fmt.Println("-- primary (replacement code) --")
		dumpFile(uu.Primary)
		if uu.Helper != nil {
			var text, total int
			for _, s := range uu.Helper.Sections {
				total += int(s.Len())
				if s.Kind == obj.Text {
					text += int(s.Len())
				}
			}
			fmt.Printf("-- helper: entire pre unit, %d bytes (%d text), %d sections --\n",
				total, text, len(uu.Helper.Sections))
		}
	}
}

func dumpKernel(version, fnName string) {
	k, err := kernel.Boot(cvedb.Tree(version))
	if err != nil {
		fatal(err)
	}
	for _, sym := range k.Syms.All() {
		if !sym.Func || sym.Size == 0 {
			continue
		}
		if fnName != "" && sym.Name != fnName {
			continue
		}
		fmt.Printf("\n%08x <%s> (%s, %d bytes):\n", sym.Addr, sym.Name, sym.Owner, sym.Size)
		code, err := k.ReadMem(sym.Addr, int(sym.Size))
		if err != nil {
			fatal(err)
		}
		for off := 0; off < len(code); {
			text, n, err := isa.Disasm(code, off, sym.Addr)
			if err != nil {
				fmt.Printf("  %08x: ?? %v\n", sym.Addr+uint32(off), err)
				break
			}
			fmt.Printf("  %08x: %s\n", sym.Addr+uint32(off), text)
			off += n
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sim-objdump:", err)
	os.Exit(1)
}
