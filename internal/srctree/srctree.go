// Package srctree models kernel source trees as in-memory file maps and
// orchestrates deterministic builds: every .mc (MiniC) and .mcs (assembly)
// file is one compilation unit, headers are reached through #include, and
// the result is a list of SOF object files plus, if requested, a linked
// kernel image.
//
// Builds are bit-for-bit deterministic for a given (tree, options) pair;
// the pre-post differencing technique depends on nothing else.
package srctree

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gosplice/internal/codegen"
	"gosplice/internal/diffutil"
	"gosplice/internal/minic"
	"gosplice/internal/obj"
	"gosplice/internal/store"
)

// Tree is an immutable in-memory source tree. Its files are reachable
// only through File, so a tree that has been built is exactly the tree
// its objects were compiled from; Patch derives a new tree instead of
// editing one in place.
type Tree struct {
	files   map[string]string
	version string
	// units is the sorted unit list Units returns.
	units []string
	// parent is the tree Patch derived this one from, and touched the
	// paths that patch created, modified or deleted; a tree from New
	// has neither. Keys the patch cannot have changed are answered by
	// the parent (see keys.go).
	parent  *Tree
	touched map[string]bool

	// mu guards the memoized keys: concurrent builds of one lineage
	// key it from several goroutines.
	mu       sync.Mutex
	hash     string
	fileKeys map[string]*fileKey
	unitKeys map[string]*unitKey
}

// New creates a tree from a copy of a file map: later edits to files
// do not reach the tree.
func New(version string, files map[string]string) *Tree {
	files = maps.Clone(files)
	return &Tree{files: files, version: version, units: sortedUnits(files)}
}

// Version labels the kernel release this tree builds (shown by tools
// and recorded in machine images).
func (t *Tree) Version() string { return t.version }

// File returns the contents of the file at a tree-relative path.
func (t *Tree) File(path string) (string, bool) {
	s, ok := t.files[path]
	return s, ok
}

// Provider adapts the tree for the MiniC lexer's #include resolution.
func (t *Tree) Provider() minic.FileProvider { return t.File }

// Units returns the tree's compilation unit paths in sorted order:
// every .mc and .mcs file. Headers (.h) are only reached via #include.
// The slice is shared by every caller (and by patched trees with the
// same files) and must not be modified.
func (t *Tree) Units() []string { return t.units }

func sortedUnits(files map[string]string) []string {
	var out []string
	for p := range files {
		if strings.HasSuffix(p, ".mc") || strings.HasSuffix(p, ".mcs") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return slices.Clip(out) // an append by a caller copies
}

// Patch parses a unified diff and applies it with ApplyPatch.
func (t *Tree) Patch(patchText string) (*Tree, error) {
	p, err := diffutil.ParsePatch(patchText)
	if err != nil {
		return nil, err
	}
	return t.ApplyPatch(p)
}

// ApplyPatch applies a parsed patch to the tree, returning the patched
// tree. The patched tree remembers t and the paths the patch names, so
// it re-keys only what the patch touched; when the patch creates and
// deletes no file, it shares t's unit list.
func (t *Tree) ApplyPatch(p *diffutil.Patch) (*Tree, error) {
	files, err := p.Apply(t.files)
	if err != nil {
		return nil, err
	}
	touched := make(map[string]bool, len(p.Files))
	units := t.units
	for _, fp := range p.Files {
		path := fp.Path()
		touched[path] = true
		_, had := t.files[path]
		if _, has := files[path]; had != has {
			units = nil
		}
	}
	if units == nil {
		units = sortedUnits(files)
	}
	return &Tree{files: files, version: t.version, units: units, parent: t, touched: touched}, nil
}

// ParseUnit parses and checks one compilation unit (MiniC only).
func (t *Tree) ParseUnit(path string) (*minic.Unit, error) {
	u, err := minic.Parse(path, t.Provider())
	if err != nil {
		return nil, err
	}
	if err := minic.Check(u); err != nil {
		return nil, err
	}
	return u, nil
}

// BuildResult is the object code produced by compiling a tree.
type BuildResult struct {
	// Tree is the tree the objects were compiled from; it is immutable,
	// so its hash keys the linked image.
	Tree    *Tree
	Options codegen.Options
	// Objects holds one object file per unit, in Units() order.
	Objects []*obj.File
}

// Object returns the object file for the given unit path, or nil.
func (br *BuildResult) Object(path string) *obj.File {
	for _, f := range br.Objects {
		if f.SourcePath == path {
			return f
		}
	}
	return nil
}

// build is the fill behind BuildCached: it compiles every unit in the
// tree with the given options, through the per-unit compile cache (see
// unitcache.go). It resolves each unit on the caller's goroutine: a unit
// the store's memory tier holds costs a lookup, and only the rest go to
// the store's GetOrFill, which reads the disk tier or compiles. Those
// misses run on min(GOMAXPROCS, misses) workers, the caller being one of
// them, so a patched tree whose patch reaches one unit starts no
// goroutine while a cold build still compiles in parallel. Compilation
// is a pure function of (source, options), and the store's singleflight
// serializes duplicate keys. The object list is in Units() order and
// any error is the first failing unit's in that same order, so results
// are deterministic for every worker count. The objects are shared and
// must not be mutated.
func build(t *Tree, opts codegen.Options) (*BuildResult, error) {
	units := t.Units()
	optsKey := opts.CacheKey()
	st := ActiveStore()
	br := &BuildResult{Tree: t, Options: opts, Objects: make([]*obj.File, len(units))}
	var misses []int
	for i, path := range units {
		if v, ok := st.Lookup(t.unitKey(path).storeKey(optsKey)); ok {
			unitHits.Inc()
			br.Objects[i] = v.(*obj.File)
			continue
		}
		misses = append(misses, i)
	}
	errs := make([]error, len(misses))
	var next atomic.Int32
	work := func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= len(misses) {
				return
			}
			i := misses[j]
			br.Objects[i], errs[j] = compileUnit(st, t, units[i], opts, optsKey)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(misses)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return br, nil
}

func buildUnit(t *Tree, path string, opts codegen.Options) (*obj.File, error) {
	if strings.HasSuffix(path, ".mcs") {
		f, err := codegen.AssembleFile(path, t.files[path], opts)
		if err != nil {
			return nil, fmt.Errorf("srctree: assemble %s: %w", path, err)
		}
		return f, nil
	}
	u, err := t.ParseUnit(path)
	if err != nil {
		return nil, fmt.Errorf("srctree: %w", err)
	}
	f, err := codegen.Compile(u, opts)
	if err != nil {
		return nil, fmt.Errorf("srctree: %w", err)
	}
	return f, nil
}

// BuildUnit compiles a single unit. It bypasses the artifact store:
// benchmarks use it to measure real compile cost, and its result is
// freshly allocated and safe to mutate.
func BuildUnit(t *Tree, path string, opts codegen.Options) (*obj.File, error) {
	return buildUnit(t, path, opts)
}

// linkKernel is the fill behind LinkKernelCached: it links a build into
// a bootable image at the given base.
func linkKernel(br *BuildResult, base uint32) (*obj.Image, error) {
	im, err := obj.Link(br.Objects, obj.LinkOptions{Base: base})
	if err != nil {
		return nil, fmt.Errorf("srctree: link kernel %s: %w", br.Tree.version, err)
	}
	return im, nil
}

// --- Build and link caches ---
//
// Every build and link goes through the content-addressed store, keyed
// by tree content hash and build options: builds are deterministic, so
// the store is always sound, and an empty store is how a caller makes
// every compile really run. The evaluation pipeline builds the same
// vulnerable tree once per CVE it processes (every ksplice-create pre
// build compiles the unpatched tree), and boots one kernel per release.
// The build memo is memory-only (its value is a list of pointers into
// disk-backed unit artifacts); linked images persist to the store's disk
// tier, so a cold process boots without relinking. Cached results are
// shared: callers must treat the returned BuildResult and Image as
// immutable, which every consumer in the repo already does (obj.Link
// and kernel boot only read them).

// BuildCached compiles the tree through the process-wide store, keyed by
// tree content hash and options. Concurrent callers with the same key
// share one build; distinct keys build in parallel. The returned
// BuildResult is shared and must not be mutated.
func BuildCached(t *Tree, opts codegen.Options) (*BuildResult, error) {
	key := store.Key("build", t.Hash(), opts.CacheKey())
	v, src, err := ActiveStore().GetOrFill(key, buildKind, func() (any, error) {
		return build(t, opts)
	})
	count(src, buildHits, buildHits, buildMisses)
	if err != nil {
		return nil, err
	}
	return v.(*BuildResult), nil
}

// LinkKernelCached links a BuildCached result through the same store,
// keyed by the content the objects were built from. The returned Image
// is shared and must not be mutated; kernel boot copies its bytes into
// machine memory. With a disk-backed store, images written by one
// process are linked exactly once across every later process.
func LinkKernelCached(br *BuildResult, base uint32) (*obj.Image, error) {
	key := store.Key("image", br.Tree.Hash(), br.Options.CacheKey(), fmt.Sprintf("base=%#x", base))
	v, src, err := ActiveStore().GetOrFill(key, imageKind, func() (any, error) {
		return linkKernel(br, base)
	})
	count(src, linkHits, linkDiskHits, linkMisses)
	if err != nil {
		return nil, err
	}
	return v.(*obj.Image), nil
}
