package kernel

import (
	"fmt"
	"slices"

	"gosplice/internal/obj"
)

// Resolver supplies addresses for symbols a module imports. The Ksplice
// core passes a resolver backed by run-pre matching results; plain module
// loads fall back to unambiguous kallsyms lookups.
type Resolver func(name string) (uint32, error)

// LoadModule links the given object files at a fresh address in the
// module area, resolving imports first through resolve (if non-nil), then
// through unambiguous kallsyms lookups, copies the image into kernel
// memory and registers its symbols.
func (k *Kernel) LoadModule(name string, files []*obj.File, resolve Resolver) (*Module, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.loadModuleLocked(name, files, resolve)
}

func (k *Kernel) loadModuleLocked(name string, files []*obj.File, resolve Resolver) (*Module, error) {
	if k.Syms.moduleIndex(name) >= 0 {
		return nil, fmt.Errorf("kernel: module %q already loaded", name)
	}
	base := (k.moduleCursor + 0xF) &^ 0xF
	chain := func(sym string) (uint32, error) {
		if resolve != nil {
			if addr, err := resolve(sym); err == nil {
				return addr, nil
			}
		}
		return k.Syms.ResolveUnique(sym)
	}
	im, err := obj.Link(files, obj.LinkOptions{Base: base, Resolve: chain})
	if err != nil {
		return nil, fmt.Errorf("kernel: loading module %q: %w", name, err)
	}
	if im.End() >= HeapBase {
		return nil, fmt.Errorf("kernel: module %q does not fit below the heap", name)
	}
	k.M.Mem.WriteAt(base, im.Bytes)
	k.moduleCursor = im.End()

	mod := &Module{
		Name: name, Image: im, Files: files,
		Base: base, Size: uint32(len(im.Bytes)),
	}
	k.Syms.AddModule(mod)
	return mod, nil
}

// UnloadModule removes a module's symbols and zeroes its memory. The
// paper unloads helper modules after an update to save memory (section
// 5.1); the address space hole is not reused.
func (k *Kernel) UnloadModule(name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := k.Syms.moduleIndex(name)
	if i < 0 {
		return fmt.Errorf("kernel: module %q not loaded", name)
	}
	mod := k.Syms.mods[i]
	k.Syms.mods = slices.Delete(k.Syms.mods, i, i+1)
	k.M.Mem.ZeroRange(mod.Base, mod.Size)
	// Reclaim trailing address space: the allocation cursor falls back to
	// the end of the last live module, the highest one. In the common
	// case — Ksplice undo removing the most recently loaded primary —
	// repeated apply/undo cycles reuse the same addresses instead of
	// creeping toward the heap.
	top := (k.Image.End() + 0xFFF) &^ 0xFFF
	if n := len(k.Syms.mods); n > 0 {
		top = max(top, k.Syms.mods[n-1].Image.End())
	}
	k.moduleCursor = min(k.moduleCursor, top)
	return nil
}

// Modules lists the loaded modules in load order, which is also base
// address order.
func (k *Kernel) Modules() []*Module {
	k.mu.Lock()
	defer k.mu.Unlock()
	return slices.Clone(k.Syms.mods)
}

// Module returns a loaded module by name.
func (k *Kernel) Module(name string) (*Module, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i := k.Syms.moduleIndex(name); i >= 0 {
		return k.Syms.mods[i], true
	}
	return nil, false
}
