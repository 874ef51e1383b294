package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"

	"gosplice/internal/codegen"
	"gosplice/internal/diffutil"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

// ErrNoChanges is returned by CreateUpdate when the patch produces no
// object-code differences (for example a comment-only patch).
var ErrNoChanges = errors.New("core: patch produces no object code changes")

// CreateOptions configures CreateUpdate.
type CreateOptions struct {
	// Name overrides the generated ksplice-xxxxxx update name.
	Name string
	// BuildCache is ignored: the pre and post builds always go through
	// the process-wide artifact store (srctree.BuildCached). Builds are
	// bit-for-bit deterministic, so the store is semantics-preserving;
	// a fresh store is how a caller makes every compile really run.
	BuildCache bool
}

// CreateUpdate implements ksplice-create: it builds the tree before and
// after the patch with codegen.KspliceBuild() (per-function and per-data
// sections), diffs the object code, and packages a hot update. Using the
// same compiler version as the running kernel's build is advisable
// (paper section 4.3); run-pre matching is the backstop.
//
// The tree must be the source of the running kernel — including any
// previously hot-applied patches when stacking updates (section 5.4).
func CreateUpdate(tree *srctree.Tree, patchText string, o CreateOptions) (*Update, error) {
	u, _, err := CreateUpdateTree(tree, patchText, o)
	return u, err
}

// CreateUpdateTree is CreateUpdate that also returns the patched tree
// its post build compiled, for a caller that goes on from that tree: a
// channel publisher derives each next position's tree this way, once.
func CreateUpdateTree(tree *srctree.Tree, patchText string, o CreateOptions) (*Update, *srctree.Tree, error) {
	patch, err := diffutil.ParsePatch(patchText)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	post, err := tree.ApplyPatch(patch)
	if err != nil {
		return nil, nil, fmt.Errorf("core: applying source patch: %w", err)
	}
	buildOpts := codegen.KspliceBuild()
	preB, err := srctree.BuildCached(tree, buildOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: pre build: %w", err)
	}
	postB, err := srctree.BuildCached(post, buildOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: post build: %w", err)
	}

	name := o.Name
	if name == "" {
		sum := sha256.Sum256([]byte(patchText))
		name = fmt.Sprintf("ksplice-%x", sum[:4])
	}
	u := &Update{
		Name:          name,
		KernelVersion: tree.Version(),
		Compiler:      codegen.Version,
		PatchLines:    patch.ChangedLines(),
		PatchText:     patchText,
	}

	// Both object lists are in Units() order, sorted by path, so one
	// walk pairs every post unit with its pre unit. A unit the patch
	// deleted has no post object and needs nothing: code cannot be
	// removed from a running kernel, and its unchanged callers keep
	// calling the old code.
	pre := preB.Objects
	for _, postF := range postB.Objects {
		path := postF.SourcePath
		for len(pre) > 0 && pre[0].SourcePath < path {
			pre = pre[1:]
		}
		var preF *obj.File
		if len(pre) > 0 && pre[0].SourcePath == path {
			preF = pre[0]
		}
		if preF != nil && filesEqual(preF, postF) {
			continue
		}
		uu, err := extractUnit(preF, postF, path)
		if err != nil {
			return nil, nil, err
		}
		u.Units = append(u.Units, uu)
	}
	if len(u.Units) == 0 {
		return nil, nil, ErrNoChanges
	}
	if err := u.Validate(); err != nil {
		return nil, nil, err
	}
	return u, post, nil
}

func isHookSection(name string) bool { return strings.HasPrefix(name, obj.HookSectionPrefix) }

// relocsEqual compares relocation lists by symbol name rather than index.
func relocsEqual(a []obj.Reloc, af *obj.File, b []obj.Reloc, bf *obj.File) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Offset != rb.Offset || ra.Type != rb.Type || ra.Addend != rb.Addend {
			return false
		}
		sa, sb := af.Symbols[ra.Sym], bf.Symbols[rb.Sym]
		if sa.Name != sb.Name || sa.Local != sb.Local {
			return false
		}
	}
	return true
}

func sectionsEqual(a *obj.Section, af *obj.File, b *obj.Section, bf *obj.File) bool {
	if a == b {
		// The per-unit compile cache shares section structures between
		// builds; identical pointers need no inspection.
		return true
	}
	return a.Kind == b.Kind &&
		a.Align == b.Align &&
		a.Size == b.Size &&
		bytes.Equal(a.Data, b.Data) &&
		relocsEqual(a.Relocs, af, b.Relocs, bf)
}

// filesEqual reports whether two object files are entirely equivalent.
// Unchanged units compiled through the unit cache are pointer-identical
// and skip immediately; every other pair gets the full walk.
func filesEqual(a, b *obj.File) bool {
	if a == b {
		return true
	}
	if len(a.Sections) != len(b.Sections) || len(a.Symbols) != len(b.Symbols) {
		return false
	}
	for i := range a.Sections {
		if a.Sections[i].Name != b.Sections[i].Name ||
			!sectionsEqual(a.Sections[i], a, b.Sections[i], b) {
			return false
		}
	}
	for i := range a.Symbols {
		sa, sb := a.Symbols[i], b.Symbols[i]
		if sa.Name != sb.Name || sa.Local != sb.Local || sa.Func != sb.Func ||
			sa.Section != sb.Section || sa.Value != sb.Value || sa.Size != sb.Size {
			return false
		}
	}
	return true
}

// extractUnit compares one unit's pre and post objects and builds the
// primary (replacement) object. preF is nil for units new in post.
func extractUnit(preF, postF *obj.File, path string) (*UpdateUnit, error) {
	uu := &UpdateUnit{Path: path, Helper: preF}

	keep := make(map[int]bool)
	for si, sec := range postF.Sections {
		switch {
		case obj.FuncNameOfSection(sec.Name) != "":
			fname := obj.FuncNameOfSection(sec.Name)
			var preSec *obj.Section
			if preF != nil {
				preSec = preF.Section(sec.Name)
			}
			if preSec == nil {
				keep[si] = true
				uu.New = append(uu.New, fname)
				continue
			}
			if !sectionsEqual(preSec, preF, sec, postF) {
				keep[si] = true
				if ps := preF.Symbol(fname); ps != nil && ps.Func && ps.Defined() {
					uu.Patched = append(uu.Patched, fname)
				} else {
					uu.New = append(uu.New, fname)
				}
			}
		case isHookSection(sec.Name):
			keep[si] = true
		case obj.IsStringSection(sec.Name):
			// Included below only if referenced by kept sections.
		default:
			name := obj.DataNameOfSection(sec.Name)
			if name == "" {
				return nil, fmt.Errorf("core: %s: unclassifiable section %q (pre/post builds must use data sections)", path, sec.Name)
			}
			var preSec *obj.Section
			if preF != nil {
				preSec = preF.Section(sec.Name)
				if preSec == nil {
					// The object may have moved between .data and .bss
					// (e.g. gaining or losing an initializer); treat that
					// as a data-semantics change.
					other := obj.DataSectionPrefix + name
					if strings.HasPrefix(sec.Name, obj.DataSectionPrefix) {
						other = obj.BSSSectionPrefix + name
					}
					if preF.Section(other) != nil {
						uu.DataInitChanges = append(uu.DataInitChanges, name)
						continue
					}
				}
			}
			if preSec == nil && (preF == nil || preF.Section(sec.Name) == nil) {
				keep[si] = true
				uu.NewData = append(uu.NewData, name)
				continue
			}
			if preSec != nil && !sectionsEqual(preSec, preF, sec, postF) {
				// Existing data whose initial value changed: the live
				// kernel keeps its state; flag for custom code.
				uu.DataInitChanges = append(uu.DataInitChanges, name)
			}
		}
	}

	// Functions removed by the patch (informational; the running kernel
	// keeps them).
	if preF != nil {
		for _, sec := range preF.Sections {
			if fname := obj.FuncNameOfSection(sec.Name); fname != "" && postF.Section(sec.Name) == nil {
				uu.Removed = append(uu.Removed, fname)
			}
		}
	}

	// Transitively include referenced read-only string sections: they are
	// immutable, so duplicating them in the primary module is always safe
	// and avoids guessing which kernel copy matches.
	for changed := true; changed; {
		changed = false
		for si := range keep {
			for _, r := range postF.Sections[si].Relocs {
				sym := postF.Symbols[r.Sym]
				if sym.Defined() && !keep[sym.Section] && obj.IsStringSection(postF.Sections[sym.Section].Name) {
					keep[sym.Section] = true
					changed = true
				}
			}
		}
	}

	prim, err := buildPrimary(postF, keep, path)
	if err != nil {
		return nil, err
	}
	uu.Primary = prim
	sort.Strings(uu.Patched)
	sort.Strings(uu.New)
	sort.Strings(uu.NewData)
	sort.Strings(uu.DataInitChanges)
	sort.Strings(uu.Removed)
	return uu, nil
}

// buildPrimary assembles the replacement object from the kept post
// sections, turning references to everything else into imports —
// unit-scoped ones for file-local symbols that stay in the kernel.
func buildPrimary(postF *obj.File, keep map[int]bool, path string) (*obj.File, error) {
	prim := &obj.File{SourcePath: path, Compiler: postF.Compiler}
	secMap := map[int]int{}
	for si, sec := range postF.Sections {
		if !keep[si] {
			continue
		}
		clone := &obj.Section{
			Name: sec.Name, Kind: sec.Kind, Align: sec.Align, Size: sec.Size,
			Data:   append([]byte(nil), sec.Data...),
			Relocs: append([]obj.Reloc(nil), sec.Relocs...),
		}
		secMap[si] = prim.AddSection(clone)
	}

	// Defined symbols for kept sections.
	symMap := map[int]int{}
	for oi, sym := range postF.Symbols {
		if !sym.Defined() || !keep[sym.Section] {
			continue
		}
		prim.Symbols = append(prim.Symbols, &obj.Symbol{
			Name: sym.Name, Local: sym.Local, Section: secMap[sym.Section],
			Value: sym.Value, Size: sym.Size, Func: sym.Func,
		})
		symMap[oi] = len(prim.Symbols) - 1
	}

	// Rewrite relocations.
	for _, sec := range prim.Sections {
		for i := range sec.Relocs {
			oi := sec.Relocs[i].Sym
			if ni, ok := symMap[oi]; ok {
				sec.Relocs[i].Sym = ni
				continue
			}
			old := postF.Symbols[oi]
			name := old.Name
			if old.Defined() && old.Local {
				// A file-local symbol that stays in the running kernel:
				// bind by unit-scoped import, resolved from run-pre
				// matching (never from the ambiguous global namespace).
				name = MangleImport(name, path)
			}
			sec.Relocs[i].Sym = prim.SymbolIndex(name)
		}
	}
	if err := prim.Validate(); err != nil {
		return nil, fmt.Errorf("core: building primary for %s: %w", path, err)
	}
	return prim, nil
}
