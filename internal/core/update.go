package core

import (
	"fmt"
	"strings"

	"gosplice/internal/obj"
)

// UpdateUnit is the per-compilation-unit portion of a hot update.
type UpdateUnit struct {
	// Path is the source path of the compilation unit.
	Path string
	// Patched lists functions that exist in the running kernel and are
	// replaced (each gets a trampoline).
	Patched []string
	// New lists functions added by the patch (loaded, not trampolined).
	New []string
	// DataInitChanges lists data objects whose initial value or size the
	// patch changes. Ksplice never touches live data automatically; these
	// are exactly the cases that need programmer-written custom code
	// (Table 1), so tools surface them loudly.
	DataInitChanges []string
	// NewData lists data objects the patch adds (loaded with the primary).
	NewData []string
	// Removed lists functions the patch deletes. The running kernel keeps
	// their code (code cannot be unloaded); informational.
	Removed []string
	// Primary is the replacement object: changed/new functions, new data,
	// referenced string literals, and .ksplice.* hook sections; all other
	// references are imports.
	Primary *obj.File
	// Helper is the complete pre object of the unit — the entire
	// optimization unit, as run-pre matching requires. Nil for units new
	// in the post tree.
	Helper *obj.File
}

// Update is a Ksplice hot update: everything needed to splice one source
// patch into a running kernel of the right version.
type Update struct {
	// Name identifies the update (ksplice-xxxxxx style).
	Name string
	// KernelVersion is the version string of the tree the update was
	// prepared against; Apply refuses other kernels.
	KernelVersion string
	// Compiler is the version stamp of the compiler used for pre/post
	// builds, recorded so tools can warn about stamp mismatches before
	// run-pre matching aborts (paper section 4.3).
	Compiler string
	// Units holds the per-unit payloads, in sorted unit order.
	Units []*UpdateUnit
	// PatchLines is the patch-length metric (changed source lines).
	PatchLines int
	// PatchText preserves the source patch the update was generated from,
	// so tools can reconstruct previously-patched source when stacking
	// further updates (section 5.4).
	PatchText string
}

// PatchedFuncs returns every (unit, function) pair the update replaces.
func (u *Update) PatchedFuncs() []string {
	var out []string
	for _, uu := range u.Units {
		for _, f := range uu.Patched {
			out = append(out, uu.Path+":"+f)
		}
	}
	return out
}

// DataInitChanges aggregates per-unit data-semantics findings.
func (u *Update) DataInitChanges() []string {
	var out []string
	for _, uu := range u.Units {
		for _, d := range uu.DataInitChanges {
			out = append(out, uu.Path+":"+d)
		}
	}
	return out
}

// HasHooks reports whether any primary object carries .ksplice.* hook
// sections (custom code supplied through the patch).
func (u *Update) HasHooks() bool {
	for _, uu := range u.Units {
		for _, sec := range uu.Primary.Sections {
			if isHookSection(sec.Name) {
				return true
			}
		}
	}
	return false
}

// importSep separates a symbol name from its owning unit in mangled
// imports: a primary object that must bind to an unchanged file-local
// symbol (say, the static "debug" that stays in the kernel) imports it as
// "debug@@drivers/dst.mc", and the apply-time resolver answers it from
// that unit's run-pre match. The mangling exists because a bare name may
// be ambiguous kernel-wide — the exact problem of paper section 4.1.
const importSep = "@@"

// MangleImport builds a unit-scoped import name.
func MangleImport(sym, unit string) string { return sym + importSep + unit }

// SplitImport undoes MangleImport; ok is false for plain imports.
func SplitImport(name string) (sym, unit string, ok bool) {
	i := strings.Index(name, importSep)
	if i < 0 {
		return name, "", false
	}
	return name[:i], name[i+len(importSep):], true
}

// Validate performs structural checks on the update.
func (u *Update) Validate() error { return u.validate(true) }

// validate is Validate; objects says whether to validate each unit's
// object files too, which a decoder that already did may skip.
func (u *Update) validate(objects bool) error {
	if u.Name == "" || u.KernelVersion == "" {
		return fmt.Errorf("core: update missing name or kernel version")
	}
	seen := map[string]bool{}
	for _, uu := range u.Units {
		if uu.Primary == nil {
			return fmt.Errorf("core: unit %s has no primary object", uu.Path)
		}
		if seen[uu.Path] {
			return fmt.Errorf("core: duplicate unit %s", uu.Path)
		}
		seen[uu.Path] = true
		if objects {
			if err := uu.Primary.Validate(); err != nil {
				return err
			}
			if uu.Helper != nil {
				if err := uu.Helper.Validate(); err != nil {
					return err
				}
			}
		}
		if uu.Helper == nil && len(uu.Patched) > 0 {
			return fmt.Errorf("core: unit %s patches functions but has no helper", uu.Path)
		}
	}
	return nil
}
