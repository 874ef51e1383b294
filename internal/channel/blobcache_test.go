package channel_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
)

// blob makes a distinct, incompressible payload of n bytes and returns
// it with its digest (what Put's callers verified before caching).
// Incompressible, so each blob's on-disk entry is its own size plus the
// store's fixed header, whatever the store's compression does.
func blob(tag string, n int) (string, []byte) {
	b := make([]byte, 0, n+sha256.Size)
	h := sha256.Sum256([]byte(tag))
	for len(b) < n {
		h = sha256.Sum256(h[:])
		b = append(b, h[:]...)
	}
	b = b[:n]
	d, _ := core.TarDigest(b)
	return d, b
}

// entryPath is where the cache keeps digest's blob: its store entry,
// named by the digest in the namespace's one objects directory.
func entryPath(dir, digest string) string {
	return filepath.Join(dir, "objects", "bl", digest)
}

// age backdates a cached blob's mtime so the LRU sweep sees it as old.
func age(t *testing.T, dir, digest string, by time.Duration) {
	t.Helper()
	old := time.Now().Add(-by)
	if err := os.Chtimes(entryPath(dir, digest), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestDirBlobCacheGC: a capped cache evicts least-recently-used blobs
// when a Put pushes it past the cap — but never blobs this process has
// touched, mirroring the artifact store GC's protection rule.
func TestDirBlobCacheGC(t *testing.T) {
	dir := t.TempDir()

	// Seed the directory as a *previous process*: write blobs through an
	// uncapped cache, then reopen. Touched-set protection is per-process,
	// so the reopened cache sees these as fair game.
	seeder, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		d, b := blob(fmt.Sprintf("old-%d", i), 1000)
		seeder.Put(d, b)
		digests[i] = d
		// Strictly increasing ages, oldest first, so eviction order is
		// deterministic.
		age(t, dir, d, time.Duration(n-i)*time.Hour)
	}

	// Cap: room for four 1000-byte blobs (each entry carries a 37-byte
	// store header) and a little slack.
	c, err := channel.NewDirBlobCacheMax(dir, 4500)
	if err != nil {
		t.Fatal(err)
	}

	// Reading a blob protects it, even though it is the oldest.
	if _, ok := c.Get(digests[0]); !ok {
		t.Fatalf("blob %d missing before any eviction", 0)
	}

	// One new Put lands the directory at 7000 bytes; the sweep must evict
	// down to the cap, oldest-first, skipping the protected blob.
	dNew, bNew := blob("new", 1000)
	c.Put(dNew, bNew)

	if _, ok := c.Get(dNew); !ok {
		t.Error("just-put blob evicted")
	}
	if _, ok := c.Get(digests[0]); !ok {
		t.Error("touched blob evicted despite protection")
	}
	// digests[1..3] were the oldest unprotected blobs: swept.
	for i := 1; i <= 3; i++ {
		if _, err := os.Stat(entryPath(dir, digests[i])); !os.IsNotExist(err) {
			t.Errorf("blob %d survived a sweep that needed its bytes", i)
		}
	}
	// The two newest seeded blobs fit under the cap with the rest: kept.
	for i := 4; i < n; i++ {
		if _, ok := c.Get(digests[i]); !ok {
			t.Errorf("blob %d evicted though the cache was under cap without it", i)
		}
	}

	// The directory really is under the cap now.
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	if total > 4500 {
		t.Errorf("cache holds %d bytes, cap is 4500", total)
	}
}

// TestDirBlobCacheUnbounded: cap <= 0 never evicts.
func TestDirBlobCacheUnbounded(t *testing.T) {
	dir := t.TempDir()
	c, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 8; i++ {
		d, b := blob(fmt.Sprintf("b-%d", i), 2048)
		c.Put(d, b)
		digests = append(digests, d)
	}
	for i, d := range digests {
		if _, ok := c.Get(d); !ok {
			t.Errorf("blob %d evicted from an unbounded cache", i)
		}
	}
}

// TestDirBlobCacheTmpSweep: temp files a crashed writer left are removed
// on open once past the store's one-minute grace; real blobs are not.
func TestDirBlobCacheTmpSweep(t *testing.T) {
	dir := t.TempDir()
	c, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, b := blob("keep", 100)
	c.Put(d, b)
	stray := filepath.Join(filepath.Dir(entryPath(dir, d)), ".tmp-123")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}

	c2, err := channel.NewDirBlobCacheMax(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray temp file survived reopen")
	}
	if _, ok := c2.Get(d); !ok {
		t.Error("real blob removed by the tmp sweep")
	}
}

// TestFreshSubscriberSweepsBlobCacheOnce: a fresh machine syncing a
// whole release's channel writes far less than the cache's cap, so only
// its first Put walks the cache directory; the rest are bounded by the
// bytes written since.
func TestFreshSubscriberSweepsBlobCacheOnce(t *testing.T) {
	version := cvedb.Versions[0]
	dir, published := publishRelease(t, version)
	if len(published) != 16 {
		t.Fatalf("%s channel has %d updates, want 16", version, len(published))
	}
	cl, err := channel.NewClient(channel.ClientConfig{
		Name: "sweeps", Transport: channel.NewDirTransport(dir), StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, mgr := bootRelease(t, version)
	cl.Bind(mgr, 0)
	if applied, err := cl.Sync(context.Background()); err != nil || len(applied) != len(published) {
		t.Fatalf("sync applied %d, %v; want %d", len(applied), err, len(published))
	}
	if n := cl.BlobSweepsForTest(); n != 1 {
		t.Errorf("fresh subscribe ran %d blob-cache sweeps, want 1", n)
	}
}
