package srctree

import (
	"bytes"
	"sync/atomic"

	"gosplice/internal/codegen"
	"gosplice/internal/obj"
	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// The build artifact caches.
//
// A ksplice-create run compiles the same tree twice — pre and post — even
// though a CVE patch touches one or two files, and a corpus evaluation
// repeats that for every patch of a release. Compilation is a pure
// function of (unit source, include closure, options), linking a pure
// function of (tree, options, base), so both artifacts are cached in a
// content-addressed store (internal/store) keyed by hashes of exactly
// those inputs. A build assembles its object list from cached units and
// compiles only the files a patch actually changed, making create cost
// proportional to the patch rather than the tree (the paper's section
// 4.1 workflow is inherently incremental).
//
// Because unit keys hash content rather than tree identity, identical
// units hit across different release trees, not just identical trees; and
// because the store's optional disk tier persists SOF and image bytes,
// they hit across processes too — a cold ksplice-create warm-starts from
// a previous process's artifacts.
//
// Cached objects are shared across builds and across concurrent callers:
// they must be treated as immutable. Sharing is also what makes the
// pre/post diff fast — unchanged units of two builds in one process are
// pointer-identical, so the differ skips them without looking inside.

var (
	// artifacts is the process-wide store. Tools with a -cache-dir flag
	// swap in a disk-backed store via UseDiskStore; the default is a
	// memory-only store with the default cap.
	artifacts atomic.Pointer[store.Store]

	// Build cache outcome counters, one family per cache split by tier,
	// on the process-wide telemetry registry.
	unitHits     = buildCounter("unit", "mem")
	unitDiskHits = buildCounter("unit", "disk")
	unitMisses   = buildCounter("unit", "miss")
	buildHits    = buildCounter("build", "mem")
	buildMisses  = buildCounter("build", "miss")
	linkHits     = buildCounter("link", "mem")
	linkDiskHits = buildCounter("link", "disk")
	linkMisses   = buildCounter("link", "miss")
)

func buildCounter(kind, tier string) *telemetry.Counter {
	return telemetry.Default().Counter("gosplice_build_cache_total",
		telemetry.L("kind", kind), telemetry.L("tier", tier))
}

func init() {
	artifacts.Store(store.MustNew(store.Options{}))
	telemetry.Default().Help("gosplice_build_cache_total",
		"build cache outcomes by cache kind (unit, build, link) and serving tier (mem, disk, miss)")
}

// SetStore installs the artifact store behind every srctree cache and
// returns the previous one (for deferred restoration in tests). Swapping
// stores mid-build is safe — each lookup pins the store once — but
// artifacts cached in the old store are no longer reachable.
func SetStore(s *store.Store) *store.Store {
	return artifacts.Swap(s)
}

// ActiveStore returns the store currently backing the srctree caches.
func ActiveStore() *store.Store { return artifacts.Load() }

// UseDiskStore installs a store persisting to dir, first sweeping dir
// down to gcBytes when gcBytes is positive — the -cache-dir and
// -cache-gc-bytes flags every tool takes. An empty dir keeps the active
// store.
func UseDiskStore(dir string, gcBytes int64) error {
	if dir == "" {
		return nil
	}
	s, err := store.New(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	if gcBytes > 0 {
		if _, err := s.GC(gcBytes); err != nil {
			return err
		}
	}
	SetStore(s)
	return nil
}

// CacheCounters is a snapshot of the process-wide build cache activity:
// per-unit compiles, whole-tree build memoizations, and kernel links,
// each split by serving tier (Hits = memory, DiskHits = disk, Misses =
// the artifact was really recomputed), plus the underlying store's own
// counters. Counters only ever grow; callers diff two snapshots to
// attribute activity to a run.
type CacheCounters struct {
	UnitHits, UnitDiskHits, UnitMisses uint64
	BuildHits, BuildMisses             uint64
	LinkHits, LinkDiskHits, LinkMisses uint64
	// Store carries the store-level view: evictions, disk writes and
	// write bytes, corrupt-entry demotions, memory-tier gauges.
	Store store.Stats
}

// Counters returns the current cache activity snapshot.
func Counters() CacheCounters {
	return CacheCounters{
		UnitHits: unitHits.Value(), UnitDiskHits: unitDiskHits.Value(), UnitMisses: unitMisses.Value(),
		BuildHits: buildHits.Value(), BuildMisses: buildMisses.Value(),
		LinkHits: linkHits.Value(), LinkDiskHits: linkDiskHits.Value(), LinkMisses: linkMisses.Value(),
		Store: ActiveStore().Stats(),
	}
}

// Sub returns the activity between an earlier snapshot b and c: every
// counter is a difference, while the store's memory-tier gauges
// (MemBytes, MemEntries) keep c's values.
func (c CacheCounters) Sub(b CacheCounters) CacheCounters {
	c.UnitHits -= b.UnitHits
	c.UnitDiskHits -= b.UnitDiskHits
	c.UnitMisses -= b.UnitMisses
	c.BuildHits -= b.BuildHits
	c.BuildMisses -= b.BuildMisses
	c.LinkHits -= b.LinkHits
	c.LinkDiskHits -= b.LinkDiskHits
	c.LinkMisses -= b.LinkMisses
	c.Store.MemHits -= b.Store.MemHits
	c.Store.DiskHits -= b.Store.DiskHits
	c.Store.Misses -= b.Store.Misses
	c.Store.Evictions -= b.Store.Evictions
	c.Store.DiskWrites -= b.Store.DiskWrites
	c.Store.DiskWriteBytes -= b.Store.DiskWriteBytes
	c.Store.DiskErrors -= b.Store.DiskErrors
	return c
}

// count records one store outcome into a (mem, disk, miss) counter trio.
func count(src store.Source, mem, disk, miss *telemetry.Counter) {
	switch src {
	case store.Mem:
		mem.Inc()
	case store.Disk:
		disk.Inc()
	default:
		miss.Inc()
	}
}

// --- Artifact kinds ---

// fileMemSize estimates an object file's in-memory footprint for LRU
// accounting: section data dominates; relocs, symbols, and headers get
// flat per-entry estimates.
func fileMemSize(f *obj.File) int64 {
	size := int64(128 + len(f.SourcePath) + len(f.Compiler))
	for _, s := range f.Sections {
		size += int64(64 + len(s.Name) + len(s.Data) + 16*len(s.Relocs))
	}
	for _, s := range f.Symbols {
		size += int64(48 + len(s.Name))
	}
	return size
}

// unitKind persists compiled units as SOF bytes.
var unitKind = store.Kind{
	Name: "unit",
	Size: func(v any) int64 { return fileMemSize(v.(*obj.File)) },
	Encode: func(v any) ([]byte, error) {
		var buf bytes.Buffer
		if err := v.(*obj.File).Write(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	},
	Decode: func(b []byte) (any, error) {
		// obj.Decode validates structurally, so a decoded unit is as
		// trustworthy as a compiled one. The store hands Decode only the
		// payload of a disk entry it has just read, which nothing else
		// keeps or writes, so the unit may alias it.
		return obj.Decode(b)
	},
}

// buildKind memoizes whole-tree build results. It is memory-only: the
// value is a slice of pointers into unit artifacts that are themselves
// disk-backed, so persisting it would only duplicate them — a cold
// process reassembles the list from per-unit disk hits instead.
var buildKind = store.Kind{
	Name: "build",
	Size: func(v any) int64 { return int64(256 + 64*len(v.(*BuildResult).Objects)) },
}

// imageKind persists linked kernel images.
var imageKind = store.Kind{
	Name: "image",
	Size: func(v any) int64 {
		im := v.(*obj.Image)
		return int64(128 + len(im.Bytes) + 48*len(im.Symbols) + 48*len(im.Sections))
	},
	Encode: func(v any) ([]byte, error) {
		var buf bytes.Buffer
		if err := v.(*obj.Image).WriteImage(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	},
	Decode: func(b []byte) (any, error) {
		// Aliases b, as unitKind's Decode does.
		return obj.DecodeImage(b)
	},
}

// compileUnit compiles one unit through st, keyed by the unit's content
// hash and optsKey, the options' CacheKey. Concurrent callers with the
// same key share one compile; distinct keys compile in parallel. The
// returned object is shared and must not be mutated.
func compileUnit(st *store.Store, t *Tree, path string, opts codegen.Options, optsKey string) (*obj.File, error) {
	key := t.unitKey(path).storeKey(optsKey)
	v, src, err := st.GetOrFill(key, unitKind, func() (any, error) {
		return buildUnit(t, path, opts)
	})
	count(src, unitHits, unitDiskHits, unitMisses)
	if err != nil {
		return nil, err
	}
	return v.(*obj.File), nil
}
