package srctree

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync"

	"gosplice/internal/store"
)

// Build keys.
//
// Every build artifact is keyed by hashes of its inputs: a unit by the
// bytes of its include closure (unitKey), a whole build or image by the
// tree (Hash). A tree is immutable, so it computes each key at most once
// and remembers it. A tree derived by Patch also remembers its parent
// and the paths the patch touched, and answers from the parent every key
// the patch cannot have changed: a file digest when the file is
// untouched, a unit key when the unit's include closure misses every
// touched path. A child stores only what it had to recompute, so
// building a patched tree costs the patch, not the whole tree.

// fileKey is what a tree remembers about one file: its content digest
// and the #include paths it names.
type fileKey struct {
	digest   [sha256.Size]byte
	includes []string
}

// unitKey is a unit's memoized key: the content hash unitHash defines,
// plus the closure its walk looked up, in walk order. The closure holds
// paths the tree lacks too, so creating one of them invalidates the key.
type unitKey struct {
	hash    string
	closure []string

	// mu guards storeKeys: every tree of a lineage that inherits the
	// key shares it, and those trees build concurrently.
	mu        sync.Mutex
	storeKeys []optsStoreKey
}

// optsStoreKey is the store key of a unit compiled under the options
// whose CacheKey is opts.
type optsStoreKey struct{ opts, key string }

// storeKey returns the artifact store key of the unit compiled under
// the options whose CacheKey is optsKey, computing it once per key and
// options: a build asks for every unit's, though few of them compile.
func (uk *unitKey) storeKey(optsKey string) string {
	uk.mu.Lock()
	defer uk.mu.Unlock()
	for _, k := range uk.storeKeys {
		if k.opts == optsKey {
			return k.key
		}
	}
	key := store.Key("unit", uk.hash, optsKey)
	uk.storeKeys = append(uk.storeKeys, optsStoreKey{optsKey, key})
	return key
}

// fileInfo returns the key of the file at path, or nil if the tree
// lacks it.
func (t *Tree) fileInfo(path string) *fileKey {
	src, ok := t.files[path]
	if !ok {
		return nil
	}
	if t.parent != nil && !t.touched[path] {
		return t.parent.fileInfo(path)
	}
	t.mu.Lock()
	fk := t.fileKeys[path]
	t.mu.Unlock()
	if fk != nil {
		return fk
	}
	fk = &fileKey{digest: sha256.Sum256([]byte(src)), includes: scanIncludes(src)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.fileKeys[path]; prev != nil {
		return prev
	}
	if t.fileKeys == nil {
		t.fileKeys = map[string]*fileKey{}
	}
	t.fileKeys[path] = fk
	return fk
}

// unitKey returns the key of the unit at path.
func (t *Tree) unitKey(path string) *unitKey {
	t.mu.Lock()
	uk := t.unitKeys[path]
	t.mu.Unlock()
	if uk != nil {
		return uk
	}
	if t.parent != nil && !t.touched[path] {
		uk = t.parent.unitKey(path)
		if !slices.ContainsFunc(uk.closure, func(p string) bool { return t.touched[p] }) {
			return uk
		}
	}
	uk = t.unitHash(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.unitKeys[path]; prev != nil {
		return prev
	}
	if t.unitKeys == nil {
		t.unitKeys = map[string]*unitKey{}
	}
	t.unitKeys[path] = uk
	return uk
}

// unitHash computes the cache key content hash for one unit: the unit
// path and contents plus, recursively, every file its (over-approximated)
// include closure reaches, in deterministic depth-first order. Files the
// closure names but the tree lacks are hashed as absent, so adding the
// missing header later changes the key. The tree's version deliberately
// does not participate: identical units of different releases share one
// artifact.
func (t *Tree) unitHash(path string) *unitKey {
	var buf []byte
	uk := &unitKey{}
	var walk func(p string)
	walk = func(p string) {
		if slices.Contains(uk.closure, p) {
			return
		}
		uk.closure = append(uk.closure, p)
		buf = append(buf, p...)
		buf = append(buf, 0)
		fk := t.fileInfo(p)
		if fk == nil {
			buf = append(buf, 1)
			return
		}
		buf = append(buf, 2)
		buf = append(buf, t.files[p]...)
		buf = append(buf, 0)
		for _, inc := range fk.includes {
			walk(inc)
		}
	}
	walk(path)
	sum := sha256.Sum256(buf)
	uk.hash = hex.EncodeToString(sum[:])
	return uk
}

// Hash returns a content hash of the tree: SHA-256 over the version and
// every path with its file digest, in path order. Builds are bit-for-bit
// deterministic for a (tree, options) pair, so the hash is a sound cache
// key for build artifacts. It is computed once per tree, from digests
// the tree's lineage computes once per file.
func (t *Tree) Hash() string {
	t.mu.Lock()
	h := t.hash
	t.mu.Unlock()
	if h != "" {
		return h
	}
	paths := make([]string, 0, len(t.files))
	for p := range t.files {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	buf := make([]byte, 0, len(t.version)+1+len(paths)*(24+sha256.Size))
	buf = append(buf, t.version...)
	buf = append(buf, 0)
	for _, p := range paths {
		buf = append(buf, p...)
		buf = append(buf, 0)
		buf = append(buf, t.fileInfo(p).digest[:]...)
	}
	sum := sha256.Sum256(buf)
	h = hex.EncodeToString(sum[:])
	t.mu.Lock()
	t.hash = h
	t.mu.Unlock()
	return h
}

// scanIncludes extracts the #include "path" arguments of a source file,
// in textual order. It deliberately over-approximates the preprocessor:
// includes inside inactive #ifdef branches are still reported, which can
// only widen the cache key (extra misses), never narrow it (stale hits).
func scanIncludes(src string) []string {
	var out []string
	for src != "" {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "#") {
			continue
		}
		rest := strings.TrimSpace(line[1:])
		if !strings.HasPrefix(rest, "include") {
			continue
		}
		arg := strings.TrimSpace(rest[len("include"):])
		if len(arg) >= 2 && arg[0] == '"' {
			if end := strings.IndexByte(arg[1:], '"'); end >= 0 {
				out = append(out, arg[1:1+end])
			}
		}
	}
	return out
}
