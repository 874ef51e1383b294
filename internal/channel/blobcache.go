package channel

// BlobCache is the subscriber's local pool of verified blobs, keyed by
// content digest. It is what makes binary deltas usable: the cache
// holds the previous position's tarball and image, so the next
// position's bytes reconstruct from a delta instead of a full fetch.
// Everything in the cache was digest-verified before Put, and the
// directory implementation re-verifies on Get, so a cache can never
// inject bytes the manifest did not promise.

import (
	"encoding/hex"
	"errors"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/store"
)

// BlobCache stores verified blobs by hex sha256 digest.
type BlobCache interface {
	// Get returns the cached blob, or ok=false when absent.
	Get(digest string) ([]byte, bool)
	// Put stores a blob the caller has already verified against digest.
	Put(digest string, b []byte)
}

// NewMemBlobCache returns an in-memory cache — what one Subscribe call
// uses to chain deltas across the entries it fetches. Not safe for
// concurrent use; each subscriber owns its cache.
func NewMemBlobCache() BlobCache {
	return memBlobCache{}
}

type memBlobCache map[string][]byte

func (c memBlobCache) Get(digest string) ([]byte, bool) {
	b, ok := c[digest]
	return b, ok
}

func (c memBlobCache) Put(digest string, b []byte) {
	c[digest] = append([]byte(nil), b...)
}

// DefaultBlobCacheBytes caps a DirBlobCache: generous against the
// corpus's blob sizes (a release's whole tarball series is well under 1
// MiB) but bounded, so a machine that subscribes across many releases
// does not grow its cache without limit.
const DefaultBlobCacheBytes = 64 << 20

// DirBlobCache persists blobs across subscribes (and processes), so a
// machine's delta bases survive: the tarball it verified last month is
// next month's delta base. It is a namespace of the artifact store
// (internal/store) rooted at the cache directory, keyed by digest (see
// blobNS). The store supplies the memory tier, the checksummed on-disk
// entries, the atomic writes and their crash points (store.disk.write.*),
// the temp sweep on open, and the size-capped GC that never evicts a
// blob this process has read or written.
type DirBlobCache struct {
	s        *store.Store
	maxBytes int64
	crash    crashpoint.Hook
}

// blobKind files raw blobs in the store: the bytes are their own
// encoding, and decoding copies them so a caller's buffer is never
// retained.
var blobKind = store.Kind{
	Name:   "blob",
	Size:   func(v any) int64 { return int64(len(v.([]byte))) },
	Encode: func(v any) ([]byte, error) { return v.([]byte), nil },
	Decode: func(b []byte) (any, error) { return append([]byte(nil), b...), nil },
}

var errBlobMiss = errors.New("channel: blob not cached")

// blobNS prefixes every digest to form its store key. The store files key
// k at objects/k[:2]/k[2:], so every blob lands in the one directory
// objects/bl/ under its digest. Fanning out by digest instead would
// create a directory for nearly every blob a fresh machine caches, and
// on ext4 that mkdir, committed by the entry's fsync, doubles the cost
// of a Put.
const blobNS = "bl"

// SetCrashHook installs the cache's crash-point hook (nil falls back
// to the process-global hook) — how a fault plan schedules a simulated
// process death inside this cache's write path.
func (c *DirBlobCache) SetCrashHook(h crashpoint.Hook) { c.crash = h }

// NewDirBlobCache opens (creating if needed) a blob cache directory with
// the default size cap.
func NewDirBlobCache(dir string) (*DirBlobCache, error) {
	return NewDirBlobCacheMax(dir, DefaultBlobCacheBytes)
}

// NewDirBlobCacheMax opens a blob cache capped at maxBytes of on-disk
// entries (<= 0 means unbounded); its memory tier holds at most as many
// blob bytes.
func NewDirBlobCacheMax(dir string, maxBytes int64) (*DirBlobCache, error) {
	c := &DirBlobCache{maxBytes: maxBytes}
	s, err := store.New(store.Options{
		Dir:      dir,
		MaxBytes: maxBytes,
		Crash:    func(label string) { crashpoint.Fire(c.crash, label) },
	})
	if err != nil {
		return nil, err
	}
	c.s = s
	return c, nil
}

// validDigest guards the digest-as-key mapping: only a 64-char hex
// string names a cache entry, so no manifest digest can traverse paths.
func validDigest(digest string) bool {
	if len(digest) != 64 {
		return false
	}
	_, err := hex.DecodeString(digest)
	return err == nil
}

// Get re-verifies the blob against its digest before returning it: the
// digest comes from an untrusted manifest, so a blob that does not hash
// to it degrades to a cache miss (and a full fetch), never to wrong
// bytes. The returned bytes are shared and must not be mutated.
func (c *DirBlobCache) Get(digest string) ([]byte, bool) {
	if !validDigest(digest) {
		return nil, false
	}
	v, _, err := c.s.GetOrFill(blobNS+digest, blobKind, func() (any, error) { return nil, errBlobMiss })
	if err != nil {
		return nil, false
	}
	b := v.([]byte)
	if got, _ := core.TarDigest(b); got != digest {
		return nil, false
	}
	return b, true
}

// Put is best-effort: a cache write or sweep failure costs bandwidth
// later, not correctness now, so neither is reported. A Put that pushes
// the cache past its cap evicts the least recently used blobs this
// process has not touched.
func (c *DirBlobCache) Put(digest string, b []byte) {
	if !validDigest(digest) {
		return
	}
	if _, err := c.s.Put(blobNS+digest, blobKind, b); err != nil {
		return
	}
	if c.maxBytes > 0 {
		_, _ = c.s.GC(c.maxBytes)
	}
}
