package codegen

import "fmt"

// Options configures a compilation. A build is KernelBuild or
// KspliceBuild; the one other setting a build varies is the inliner,
// which a test turns off to compile a kernel run-pre matching must
// refuse (paper section 4.3).
type Options struct {
	// ObjectSections gives every function its own ".text.name" section
	// with near branch encodings, like gcc's -ffunction-sections, and
	// every data object and string literal its own section, like
	// -fdata-sections, so every reference between them is a relocation.
	// Ksplice pre/post builds set it (paper section 3.2); running
	// kernels are built without it.
	ObjectSections bool
	// Inline enables the automatic inliner. Like gcc, the inliner works
	// from a size heuristic: the `inline` keyword is neither necessary
	// nor sufficient.
	Inline bool
}

// Version is the compiler identification stamp recorded in object
// files. Run-pre matching is sensitive to compiler changes; tools
// compare stamps to warn before an abort happens (paper section 4.3).
const Version = "minicc 1.0 (sim32-linux)"

const (
	// inlineMaxNodes is the inliner's body-size budget: AST nodes in a
	// candidate's returned expression.
	inlineMaxNodes = 24
	// loopAlign is the boundary loop heads are padded to with no-ops.
	loopAlign = 8
	// funcAlign is the boundary each function starts on in a shared
	// .text, and the alignment of every text section.
	funcAlign = 16
)

// CacheKey renders the options as a canonical string for use in build
// cache keys: two Options values produce the same key exactly when they
// configure identical compilations. The key also carries the inline
// budget and the version stamp, so a compiler that changes either
// misses every cached object. It keeps the form it had when those and
// loop alignment were fields, so the keys of existing stores stay valid.
func (o Options) CacheKey() string {
	return fmt.Sprintf("fs=%t ds=%t inline=%t/%d align=true ver=%q",
		o.ObjectSections, o.ObjectSections, o.Inline, inlineMaxNodes, Version)
}

// KernelBuild returns the options a distributor uses to build a running
// kernel: shared .text per unit, relaxed branches, inlining on.
func KernelBuild() Options {
	return Options{Inline: true}
}

// KspliceBuild returns the options ksplice-create uses for pre and post
// object generation: per-function and per-data sections so that every
// reference is a relocation (paper section 3.2).
func KspliceBuild() Options {
	return Options{ObjectSections: true, Inline: true}
}
