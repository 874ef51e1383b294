// Package store is the content-addressed artifact store under the build
// pipeline: a two-tier cache keyed by sha256 content hashes.
//
// The front tier is an in-memory cache with a configurable byte cap and
// approximate-LRU eviction. Reads of resident entries are lock-free —
// the eval pipeline's workers hit this tier hundreds of thousands of
// times per run, so the hit path takes no mutex; only fills, inserts and
// eviction serialize. Behind it sits an optional on-disk tier that
// persists serialized artifacts (SOF object bytes, linked kernel images)
// under
//
//	<dir>/objects/ab/cdef...
//
// where ab/cdef... splits the hex key git-style. Disk entries are written
// atomically (internal/atomicfile), flate-compressed when that shrinks
// them, and carry a checksum of the stored body; a truncated,
// bit-flipped, or otherwise unreadable entry is treated as a miss — the artifact is recomputed,
// never served corrupt. GC sweeps the disk tier down to a byte budget,
// oldest entries first, without ever evicting an entry the sweeping
// process has itself read.
//
// Because keys are pure content hashes of the inputs (unit source plus
// include closure plus codegen options; tree hash plus link base), the
// store is shared safely across trees, releases, and — through the disk
// tier — across processes: a cold ksplice-create warm-starts from the
// artifacts a previous process left behind.
//
// Concurrent callers with the same key share one fill (singleflight);
// distinct keys fill in parallel. Values handed out by the store are
// shared and must be treated as immutable by every caller — the same
// contract the process-wide build caches have always imposed.
package store

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosplice/internal/atomicfile"
	"gosplice/internal/crashpoint"
	"gosplice/internal/telemetry"
)

// DefaultMaxBytes is the in-memory tier's cap when Options.MaxBytes is
// unset: generous for the 64-CVE corpus, bounded for many-tenant loads.
const DefaultMaxBytes = 256 << 20

// Crash points on the disk tier's write path. It is a cache point: every
// entry carries its checksum and a bad one reads as a miss, so a power
// loss that empties or tears an entry costs a refill, and the write
// skips the fsync.
var cpDiskWrite = atomicfile.CachePoint("store.disk.write")

// Source reports which tier satisfied a GetOrFill.
type Source int

const (
	// Filled means the artifact was computed by running the fill
	// function (a true miss).
	Filled Source = iota
	// Mem means the in-memory tier had the artifact (or an in-flight
	// fill for the same key was joined).
	Mem
	// Disk means the artifact was deserialized from the on-disk tier.
	Disk
)

func (s Source) String() string {
	switch s {
	case Mem:
		return "mem"
	case Disk:
		return "disk"
	}
	return "filled"
}

// Kind describes how one artifact type is sized and serialized. A Kind
// with a nil Encode or Decode is memory-only: it never touches the disk
// tier (the whole-tree build memo works this way — its value is a slice
// of pointers into unit artifacts that are themselves disk-backed).
type Kind struct {
	// Name labels the artifact type in errors.
	Name string
	// Size estimates the in-memory footprint in bytes, for LRU
	// accounting.
	Size func(v any) int64
	// Encode serializes the artifact for the disk tier.
	Encode func(v any) ([]byte, error)
	// Decode deserializes a disk payload. It must validate the result:
	// a decode error demotes the entry to a miss.
	Decode func(b []byte) (any, error)
}

func (k Kind) diskable() bool { return k.Encode != nil && k.Decode != nil }

// Options configures New.
type Options struct {
	// MaxBytes caps the in-memory tier; <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// Dir roots the on-disk tier; empty disables it.
	Dir string
	// Crash, when set, receives the crash points in the disk tier's write
	// path (see internal/crashpoint) — how crash-consistency tests kill a
	// process between a temp-file write and its rename. Nil falls back to
	// the process-global hook.
	Crash crashpoint.Hook
}

// Stats is a snapshot of store activity. The counters are monotonic;
// callers diff two snapshots to attribute activity to a run. MemBytes and
// MemEntries are gauges of the in-memory tier at snapshot time.
//
// Stats is a thin view over the store's telemetry registry (see
// Metrics()); the registry is the source of truth, and what it counts
// rolls up into the process-wide registry /metrics scrapes live.
type Stats struct {
	MemHits  uint64 // served by the memory tier's lock-free fast path
	DiskHits uint64 // deserialized from the disk tier
	Misses   uint64 // fill function ran

	Evictions      uint64 // in-memory entries dropped by the LRU cap
	DiskWrites     uint64 // entries persisted to the disk tier
	DiskWriteBytes uint64 // payload bytes persisted
	DiskErrors     uint64 // corrupt/unreadable disk entries demoted to misses

	MemBytes   uint64
	MemEntries uint64
}

type entry struct {
	key  string
	val  any
	size int64
	// atime is the entry's recency stamp, drawn from the store's shared
	// clock on every hit. Eviction sorts by it; a stale stamp at worst
	// evicts a slightly-wrong victim (approximate LRU), never a wrong
	// value.
	atime atomic.Int64
}

type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Store is a two-tier content-addressed artifact cache. The zero value is
// not usable; construct with New.
type Store struct {
	maxBytes int64
	dir      string // "" = memory-only
	crash    crashpoint.Hook

	// entries is the memory tier: key -> *entry. Resident-entry reads go
	// straight through it with no locking; all mutation (insert, evict)
	// happens under mu. A reader racing an eviction may still be handed
	// the evicted value — harmless, artifacts are immutable.
	entries sync.Map
	// clock issues recency stamps for approximate LRU. Monotonic,
	// incremented on every hit and insert.
	clock atomic.Int64

	mu       sync.Mutex
	curBytes int64
	memCount int64
	inflight map[string]*call
	// touched records disk-tier keys this process read or wrote; GC
	// never evicts them, so a sweep cannot pull an entry out from under
	// the run that is using it.
	touched map[string]bool

	// Telemetry. Counters are created eagerly in New so a scrape of a
	// fresh store exposes the full family taxonomy at zero.
	met             *telemetry.Registry
	cMemHits        *telemetry.Counter
	cDiskHits       *telemetry.Counter
	cMisses         *telemetry.Counter
	cJoins          *telemetry.Counter
	cEvictions      *telemetry.Counter
	cDiskWrites     *telemetry.Counter
	cDiskWriteBytes *telemetry.Counter
	cDiskErrors     *telemetry.Counter
	cGCSweeps       *telemetry.Counter
	cGCRemoved      *telemetry.Counter
	cGCFreedBytes   *telemetry.Counter
	gMemBytes       *telemetry.Gauge
	gMemEntries     *telemetry.Gauge
	hFill           *telemetry.Histogram
}

// New creates a store. When Options.Dir is set, the objects directory is
// created eagerly so misconfiguration (an unwritable path) surfaces here
// rather than as silent cache misses later.
func New(o Options) (*Store, error) {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	met := telemetry.NewRegistry()
	s := &Store{
		maxBytes: o.MaxBytes,
		dir:      o.Dir,
		crash:    o.Crash,
		inflight: map[string]*call{},
		touched:  map[string]bool{},
		met:      met,
	}
	met.Help("gosplice_store_gets_total", "artifact lookups by outcome (singleflight joins are counted only in singleflight_joins_total)")
	met.Help("gosplice_store_singleflight_joins_total", "lookups that joined another caller's in-flight fill")
	met.Help("gosplice_store_evictions_total", "in-memory entries dropped by the LRU byte cap")
	met.Help("gosplice_store_disk_writes_total", "artifacts persisted to the disk tier")
	met.Help("gosplice_store_disk_write_bytes_total", "payload bytes persisted to the disk tier")
	met.Help("gosplice_store_disk_errors_total", "corrupt or unreadable disk entries demoted to misses")
	met.Help("gosplice_store_gc_sweeps_total", "disk-tier GC sweeps run")
	met.Help("gosplice_store_gc_removed_entries_total", "disk entries deleted by GC")
	met.Help("gosplice_store_gc_freed_bytes_total", "disk bytes reclaimed by GC")
	met.Help("gosplice_store_mem_bytes", "in-memory tier size in accounted bytes")
	met.Help("gosplice_store_mem_entries", "in-memory tier entry count")
	met.Help("gosplice_store_fill_seconds", "latency of running an artifact's fill function on a true miss")
	s.cMemHits = met.Counter("gosplice_store_gets_total", telemetry.L("outcome", "mem_hit"))
	s.cDiskHits = met.Counter("gosplice_store_gets_total", telemetry.L("outcome", "disk_hit"))
	s.cMisses = met.Counter("gosplice_store_gets_total", telemetry.L("outcome", "miss"))
	s.cJoins = met.Counter("gosplice_store_singleflight_joins_total")
	s.cEvictions = met.Counter("gosplice_store_evictions_total")
	s.cDiskWrites = met.Counter("gosplice_store_disk_writes_total")
	s.cDiskWriteBytes = met.Counter("gosplice_store_disk_write_bytes_total")
	s.cDiskErrors = met.Counter("gosplice_store_disk_errors_total")
	s.cGCSweeps = met.Counter("gosplice_store_gc_sweeps_total")
	s.cGCRemoved = met.Counter("gosplice_store_gc_removed_entries_total")
	s.cGCFreedBytes = met.Counter("gosplice_store_gc_freed_bytes_total")
	s.gMemBytes = met.Gauge("gosplice_store_mem_bytes")
	s.gMemEntries = met.Gauge("gosplice_store_mem_entries")
	s.hFill = met.Histogram("gosplice_store_fill_seconds", nil)
	if s.dir != "" {
		root := filepath.Join(s.dir, "objects")
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// Reclaim temp files crashed writers left behind. Other live
		// processes may share the directory, so only files older than a
		// minute go: those cannot belong to a write still in flight.
		if subs, err := os.ReadDir(root); err == nil {
			for _, d := range subs {
				if d.IsDir() {
					atomicfile.SweepTemps(filepath.Join(root, d.Name()), time.Minute)
				}
			}
		}
	}
	return s, nil
}

// MustNew is New for static configuration that cannot fail (no disk dir).
func MustNew(o Options) *Store {
	s, err := New(o)
	if err != nil {
		panic(err)
	}
	return s
}

// Key builds a content-hash key from its parts. Parts are length-prefixed
// before hashing, so ("ab", "c") and ("a", "bc") produce distinct keys.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// GetOrFill returns the artifact for key, consulting the memory tier,
// then the disk tier, then running fill. Concurrent callers with the same
// key share one lookup-and-fill; the winner's result is handed to every
// joiner. Fill errors are returned but never cached — a later call
// retries. The returned value is shared and must not be mutated.
func (s *Store) GetOrFill(key string, k Kind, fill func() (any, error)) (any, Source, error) {
	if v, ok := s.Lookup(key); ok {
		return v, Mem, nil
	}
	s.mu.Lock()
	// Re-check under the lock: a fill may have completed between the
	// fast-path miss and acquiring mu.
	if v, ok := s.entries.Load(key); ok {
		s.mu.Unlock()
		e := v.(*entry)
		e.atime.Store(s.clock.Add(1))
		s.cMemHits.Inc()
		return e.val, Mem, nil
	}
	if c, ok := s.inflight[key]; ok {
		// Join the in-flight fill: one compile, many consumers. Joins are
		// counted only as joins — the joined result was not served by the
		// memory tier, so counting it as a mem hit would inflate hit-rate
		// telemetry.
		s.mu.Unlock()
		s.cJoins.Inc()
		c.wg.Wait()
		return c.val, Mem, c.err
	}
	c := &call{}
	c.wg.Add(1)
	s.inflight[key] = c
	s.mu.Unlock()

	v, src, err := s.lookupOrFill(key, k, fill)

	s.mu.Lock()
	switch {
	case err != nil:
		s.cMisses.Inc()
	case src == Disk:
		s.cDiskHits.Inc()
		s.insertLocked(key, v, k)
	default:
		s.cMisses.Inc()
		s.insertLocked(key, v, k)
	}
	delete(s.inflight, key)
	s.mu.Unlock()

	c.val, c.err = v, err
	c.wg.Done()

	if err == nil && src == Filled {
		s.writeDisk(key, v, k)
	}
	return v, src, err
}

// Lookup returns the artifact the memory tier holds under key, counting
// a memory hit. On a miss it returns false and counts nothing: it never
// reads the disk tier, joins a fill or runs one, so a caller that misses
// goes on to GetOrFill, which counts the outcome. A resident entry is
// served with no lock at all. Counters and the recency stamp are
// atomics, so concurrent readers of a hot key (the dominant access
// pattern of a parallel eval run) never contend with each other or with
// unrelated fills. The returned value is shared and must not be mutated.
func (s *Store) Lookup(key string) (any, bool) {
	v, ok := s.entries.Load(key)
	if !ok {
		return nil, false
	}
	e := v.(*entry)
	e.atime.Store(s.clock.Add(1))
	s.cMemHits.Inc()
	return e.val, true
}

// Put files an externally produced artifact under key: payload is the
// artifact's encoded form (what Kind.Encode would produce). It is the
// import path for artifacts that arrive from outside rather than from a
// local fill — the subscriber's blob cache files every verified tarball
// it receives this way. The payload is decoded first, which validates
// it the same way a disk read would; a payload that does not decode is rejected and nothing is
// stored. The decoded value is returned and, like every store value, is
// shared and must not be mutated.
func (s *Store) Put(key string, k Kind, payload []byte) (any, error) {
	if k.Decode == nil {
		return nil, fmt.Errorf("store: put %s: kind has no decoder", k.Name)
	}
	v, err := k.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("store: put %s: %w", k.Name, err)
	}
	s.mu.Lock()
	s.insertLocked(key, v, k)
	s.mu.Unlock()
	s.writeDisk(key, v, k)
	return v, nil
}

func (s *Store) lookupOrFill(key string, k Kind, fill func() (any, error)) (any, Source, error) {
	if s.dir != "" && k.diskable() {
		if b, ok := s.readDisk(key); ok {
			v, err := k.Decode(b)
			if err == nil {
				return v, Disk, nil
			}
			// Checksum passed but the payload does not decode (foreign
			// or stale format): demote to a miss like any corruption.
			s.dropDisk(key)
		}
	}
	t0 := time.Now()
	v, err := fill()
	s.hFill.ObserveDuration(time.Since(t0))
	return v, Filled, err
}

func (s *Store) insertLocked(key string, v any, k Kind) {
	if _, ok := s.entries.Load(key); ok {
		return // a racing disk hit and fill can both insert; keep the first
	}
	e := &entry{key: key, val: v, size: k.Size(v)}
	e.atime.Store(s.clock.Add(1))
	s.entries.Store(key, e)
	s.memCount++
	s.curBytes += e.size
	if s.curBytes > s.maxBytes {
		s.evictLocked()
	}
	s.gMemBytes.Set(s.curBytes)
	s.gMemEntries.Set(s.memCount)
}

// evictLocked brings the memory tier back under its byte cap by dropping
// the entries with the oldest recency stamps first. It runs only when an
// insert pushes the tier over the cap, so the O(n log n) collect-and-sort
// is paid on the rare pressure path, never on hits. Fast-path readers
// racing an eviction may still be handed the dropped value; that is fine,
// artifacts are immutable and the next lookup refills.
func (s *Store) evictLocked() {
	var all []*entry
	s.entries.Range(func(_, v any) bool {
		all = append(all, v.(*entry))
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].atime.Load() < all[j].atime.Load() })
	for _, e := range all {
		if s.curBytes <= s.maxBytes || s.memCount == 0 {
			break
		}
		s.entries.Delete(e.key)
		s.memCount--
		s.curBytes -= e.size
		s.cEvictions.Inc()
	}
}

// Stats returns a snapshot of the counters and memory-tier gauges, read
// from the store's telemetry registry.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	mem := uint64(s.curBytes)
	entries := uint64(s.memCount)
	s.mu.Unlock()
	return Stats{
		MemHits:        s.cMemHits.Value(),
		DiskHits:       s.cDiskHits.Value(),
		Misses:         s.cMisses.Value(),
		Evictions:      s.cEvictions.Value(),
		DiskWrites:     s.cDiskWrites.Value(),
		DiskWriteBytes: s.cDiskWriteBytes.Value(),
		DiskErrors:     s.cDiskErrors.Value(),
		MemBytes:       mem,
		MemEntries:     entries,
	}
}

// Metrics returns the store's own telemetry registry. It rolls up into
// the process-wide default registry, so /metrics sums every store the
// process has made.
func (s *Store) Metrics() *telemetry.Registry { return s.met }

// Dir returns the disk tier's root directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// DiskUsage reports the disk tier's entry count and total payload bytes
// by walking the objects directory.
func (s *Store) DiskUsage() (entries int, bytes int64) {
	if s.dir == "" {
		return 0, 0
	}
	filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes
}

// --- Disk tier ---
//
// Entry layout (GSC2): the 4-byte magic "GSC2", a sha256, then the body
// — one format byte (0 = raw, 1 = flate) and the possibly-compressed
// payload. The sha256 is over the whole body. SOF bytes are highly
// redundant, so the flate layer shrinks the on-disk footprint
// several-fold. The key is a hash of the artifact's *inputs*, so it
// cannot authenticate the stored bytes; the embedded digest does.
// Read and verification failures of any sort (an unreadable path, short
// file, flipped bit, bad or older magic, undecompressible body) count as
// DiskErrors and fall back to recomputation; the broken entry is removed
// so it is rewritten.

var diskMagic = [4]byte{'G', 'S', 'C', '2'}

const (
	diskHeaderLen = 4 + sha256.Size

	// EntryOverhead is the most a disk entry adds to its payload: the
	// header and the format byte. Compression only ever shrinks the rest.
	EntryOverhead = diskHeaderLen + 1

	formatRaw   byte = 0
	formatFlate byte = 1
)

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key[2:])
}

func (s *Store) readDisk(key string) ([]byte, bool) {
	path := s.objectPath(key)
	b, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.dropDisk(key)
		}
		return nil, false
	}
	if len(b) <= diskHeaderLen || [4]byte(b[:4]) != diskMagic {
		s.dropDisk(key)
		return nil, false
	}
	body := b[diskHeaderLen:]
	if sha256.Sum256(body) != [sha256.Size]byte(b[4:diskHeaderLen]) {
		s.dropDisk(key)
		return nil, false
	}
	var payload []byte
	switch body[0] {
	case formatRaw:
		payload = body[1:]
	case formatFlate:
		if payload, err = inflate(body[1:]); err != nil {
			s.dropDisk(key)
			return nil, false
		}
	default:
		s.dropDisk(key)
		return nil, false
	}
	s.touch(key, path)
	return payload, true
}

// touch protects a disk entry from the GC sweep for the rest of this
// process and (best effort) refreshes its mtime so age-based sweeps by
// other processes see it as recently used.
func (s *Store) touch(key, path string) {
	s.mu.Lock()
	s.touched[key] = true
	s.mu.Unlock()
	now := time.Now()
	os.Chtimes(path, now, now)
}

// inflate decompresses a flate-framed disk body.
func inflate(b []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(b))
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return out, r.Close()
}

// dropDisk removes a corrupt entry (so a fresh artifact replaces it) and
// counts the corruption.
func (s *Store) dropDisk(key string) {
	os.Remove(s.objectPath(key))
	s.countDiskError()
}

func (s *Store) countDiskError() { s.cDiskErrors.Inc() }

// writeDisk persists a freshly filled artifact: encode, compress when
// that shrinks it, checksum, then one atomicfile.Write. Failures are counted but not returned — the store
// degrades to memory-only behaviour rather than failing the build.
func (s *Store) writeDisk(key string, v any, k Kind) {
	if s.dir == "" || !k.diskable() {
		return
	}
	payload, err := k.Encode(v)
	if err != nil {
		s.countDiskError()
		return
	}
	dir := filepath.Dir(s.objectPath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.countDiskError()
		return
	}
	body := append([]byte{formatRaw}, payload...)
	if comp, ok := deflate(payload); ok {
		body = append([]byte{formatFlate}, comp...)
	}
	sum := sha256.Sum256(body)
	buf := make([]byte, 0, diskHeaderLen+len(body))
	buf = append(buf, diskMagic[:]...)
	buf = append(buf, sum[:]...)
	buf = append(buf, body...)
	if err := atomicfile.Write(s.objectPath(key), buf, 0o600, s.crash, cpDiskWrite); err != nil {
		s.countDiskError()
		return
	}
	s.cDiskWrites.Inc()
	s.cDiskWriteBytes.Add(uint64(len(body)))
	s.mu.Lock()
	s.touched[key] = true
	s.mu.Unlock()
}

// flateWriters recycles compressors: a fresh flate.Writer allocates over
// a megabyte of tables, far more than compressing one artifact costs.
var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(nil, flate.BestSpeed)
	return w
}}

// deflate compresses b with flate, reporting false when compression does
// not pay for itself.
func deflate(b []byte) ([]byte, bool) {
	var buf bytes.Buffer
	w := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(b); err != nil {
		return nil, false
	}
	if err := w.Close(); err != nil {
		return nil, false
	}
	if buf.Len() >= len(b) {
		return nil, false
	}
	return buf.Bytes(), true
}

// --- Disk-tier garbage collection ---

// GCResult summarizes one disk-tier sweep.
type GCResult struct {
	Scanned      int   // entries examined
	ScannedBytes int64 // their total on-disk size
	Removed      int   // entries deleted
	FreedBytes   int64 // bytes those deletions reclaimed
}

// GC sweeps the disk tier down to maxBytes, deleting the oldest entries
// (by modification time, which reads refresh) first — age- and size-based
// eviction for long-lived shared cache directories, which otherwise grow
// without bound. Entries this store has read or written since it opened
// are never evicted, so a sweep running concurrently with cache traffic
// cannot delete an entry out from under its reader; at worst a racing
// reader refetches on its next use. Temp files are not entries: New
// reclaims the ones crashed writers leave. maxBytes <= 0 sweeps
// everything unprotected.
func (s *Store) GC(maxBytes int64) (GCResult, error) {
	var res GCResult
	if s.dir == "" {
		return res, nil
	}
	type victim struct {
		key, path string
		size      int64
		mtime     time.Time
	}
	var victims []victim
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		victims = append(victims, victim{
			key:   filepath.Base(filepath.Dir(path)) + d.Name(),
			path:  path,
			size:  info.Size(),
			mtime: info.ModTime(),
		})
		res.Scanned++
		res.ScannedBytes += info.Size()
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("store: gc: %w", err)
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].mtime.Equal(victims[j].mtime) {
			return victims[i].mtime.Before(victims[j].mtime)
		}
		return victims[i].key < victims[j].key // deterministic tie-break
	})
	total := res.ScannedBytes
	for _, v := range victims {
		if total <= maxBytes {
			break
		}
		// Re-check protection immediately before each removal: an entry
		// read while the sweep runs is spared.
		s.mu.Lock()
		protected := s.touched[v.key]
		s.mu.Unlock()
		if protected {
			continue
		}
		if err := os.Remove(v.path); err != nil {
			continue
		}
		total -= v.size
		res.Removed++
		res.FreedBytes += v.size
	}
	s.cGCSweeps.Inc()
	s.cGCRemoved.Add(uint64(res.Removed))
	s.cGCFreedBytes.Add(uint64(res.FreedBytes))
	return res, nil
}
