package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blobKind stores []byte values verbatim — the simplest round-trippable
// artifact, used by every test here.
var blobKind = Kind{
	Name: "blob",
	Size: func(v any) int64 { return int64(len(v.([]byte))) },
	Encode: func(v any) ([]byte, error) {
		return append([]byte(nil), v.([]byte)...), nil
	},
	Decode: func(b []byte) (any, error) {
		if len(b) < 4 {
			return nil, fmt.Errorf("blob too short")
		}
		if want := binary.LittleEndian.Uint32(b); int(want) != len(b)-4 {
			return nil, fmt.Errorf("blob length field %d != payload %d", want, len(b)-4)
		}
		return append([]byte(nil), b...), nil
	},
}

// memKind is blobKind without a disk tier.
var memKind = Kind{
	Name: "memblob",
	Size: func(v any) int64 { return int64(len(v.([]byte))) },
}

// blob makes a self-describing payload: 4-byte length then n bytes of a
// deterministic pattern, so Decode can validate integrity structurally.
func blob(seed byte, n int) []byte {
	b := make([]byte, 4+n)
	binary.LittleEndian.PutUint32(b, uint32(n))
	for i := 0; i < n; i++ {
		b[4+i] = seed + byte(i)
	}
	return b
}

func fillWith(v []byte, calls *atomic.Int64) func() (any, error) {
	return func() (any, error) {
		calls.Add(1)
		return v, nil
	}
}

func TestKeyPartsAreLengthPrefixed(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error(`Key("ab","c") == Key("a","bc"): parts not length-prefixed`)
	}
	if Key("a") == Key("a", "") {
		t.Error(`Key("a") == Key("a",""): arity not part of the key`)
	}
	if len(Key("x")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(Key("x")))
	}
}

func TestMemoryTierHitAndSingleFill(t *testing.T) {
	s := MustNew(Options{})
	var calls atomic.Int64
	want := blob(1, 100)
	for i := 0; i < 3; i++ {
		v, src, err := s.GetOrFill(Key("k"), memKind, fillWith(want, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.([]byte), want) {
			t.Fatalf("get %d: wrong value", i)
		}
		wantSrc := Mem
		if i == 0 {
			wantSrc = Filled
		}
		if src != wantSrc {
			t.Errorf("get %d: source %v, want %v", i, src, wantSrc)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("fill ran %d times, want 1", calls.Load())
	}
	st := s.Stats()
	if st.MemHits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 mem hits / 1 miss", st)
	}
}

func TestFillErrorsAreNotCached(t *testing.T) {
	s := MustNew(Options{})
	var calls atomic.Int64
	_, _, err := s.GetOrFill(Key("k"), memKind, func() (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("transient")
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
	v, src, err := s.GetOrFill(Key("k"), memKind, fillWith(blob(2, 8), &calls))
	if err != nil {
		t.Fatal(err)
	}
	if src != Filled {
		t.Errorf("retry source %v, want Filled (errors must not be cached)", src)
	}
	if v == nil || calls.Load() != 2 {
		t.Errorf("retry did not re-run fill (calls=%d)", calls.Load())
	}
}

// TestLRUEvictionUnderPressure: the in-memory tier stays under its byte
// cap by evicting least-recently-used entries, and an evicted key is
// recomputed (or re-read from disk) correctly on its next use.
func TestLRUEvictionUnderPressure(t *testing.T) {
	s := MustNew(Options{MaxBytes: 1000})
	var calls atomic.Int64
	vals := map[string][]byte{}
	for i := 0; i < 8; i++ {
		key := Key(fmt.Sprint(i))
		vals[key] = blob(byte(i), 296) // 300 bytes each: 3 fit under the cap
		if _, _, err := s.GetOrFill(key, memKind, fillWith(vals[key], &calls)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after 8x300 bytes into a 1000-byte cap: %+v", st)
	}
	if st.MemBytes > 1000 {
		t.Errorf("memory tier holds %d bytes, cap is 1000", st.MemBytes)
	}
	// The oldest key was evicted; refetching must refill with the right
	// value, not fail or serve another entry.
	key0 := Key(fmt.Sprint(0))
	v, src, err := s.GetOrFill(key0, memKind, fillWith(vals[key0], &calls))
	if err != nil {
		t.Fatal(err)
	}
	if src != Filled {
		t.Errorf("evicted key served from %v, want Filled", src)
	}
	if !bytes.Equal(v.([]byte), vals[key0]) {
		t.Error("refilled value is wrong")
	}
	// The most recent key must still be resident.
	key7 := Key(fmt.Sprint(7))
	if _, src, _ := s.GetOrFill(key7, memKind, fillWith(vals[key7], &calls)); src != Mem {
		t.Errorf("most-recent key served from %v, want Mem", src)
	}
}

// TestDiskTierRoundTrip: a second store over the same directory — a
// simulated process restart — serves the artifact from disk without
// running fill.
func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := blob(3, 500)
	var calls atomic.Int64

	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, src, err := s1.GetOrFill(Key("k"), blobKind, fillWith(want, &calls)); err != nil || src != Filled {
		t.Fatalf("cold get: src=%v err=%v", src, err)
	}
	if st := s1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("cold fill wrote %d disk entries, want 1 (%+v)", st.DiskWrites, st)
	}
	if n, b := s1.DiskUsage(); n != 1 || b == 0 {
		t.Fatalf("DiskUsage = (%d, %d), want one non-empty entry", n, b)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, src, err := s2.GetOrFill(Key("k"), blobKind, fillWith(want, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if src != Disk {
		t.Errorf("warm get source %v, want Disk", src)
	}
	if !bytes.Equal(v.([]byte), want) {
		t.Error("disk round trip corrupted the value")
	}
	if calls.Load() != 1 {
		t.Errorf("fill ran %d times across both stores, want 1", calls.Load())
	}
	// Once read, the artifact is promoted to the memory tier.
	if _, src, _ := s2.GetOrFill(Key("k"), blobKind, fillWith(want, &calls)); src != Mem {
		t.Errorf("second warm get source %v, want Mem", src)
	}
}

// TestMemoryOnlyKindSkipsDisk: kinds without codecs never hit the disk.
func TestMemoryOnlyKindSkipsDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if _, _, err := s.GetOrFill(Key("k"), memKind, fillWith(blob(4, 10), &calls)); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.DiskUsage(); n != 0 {
		t.Errorf("memory-only kind left %d disk entries", n)
	}
}

// corruptions maps a name to a mutation of a valid on-disk entry.
var corruptions = map[string]func([]byte) []byte{
	"zero-length": func(b []byte) []byte { return nil },
	"truncated-header": func(b []byte) []byte {
		return b[:diskHeaderLen/2]
	},
	"truncated-payload": func(b []byte) []byte {
		return b[:len(b)-1]
	},
	"bit-flip-payload": func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 0x40
		return c
	},
	"bit-flip-checksum": func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[10] ^= 0x01
		return c
	},
	"bad-magic": func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] = 'X'
		return c
	},
	// The retired GSC1 format — digest over the raw payload, no format
	// byte — of the very value the test stores: a well-formed entry from
	// an older build, and still a miss.
	"legacy-gsc1": func([]byte) []byte {
		want := blob(5, 200)
		sum := sha256.Sum256(want)
		return append(append([]byte("GSC1"), sum[:]...), want...)
	},
}

// TestCorruptDiskEntriesFallBackToFill: every corruption mode demotes the
// entry to a recompute — correct value, DiskErrors counted, broken file
// replaced by a fresh one.
func TestCorruptDiskEntriesFallBackToFill(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := blob(5, 200)
			var calls atomic.Int64
			s1, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			key := Key("k")
			if _, _, err := s1.GetOrFill(key, blobKind, fillWith(want, &calls)); err != nil {
				t.Fatal(err)
			}
			path := s1.objectPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			v, src, err := s2.GetOrFill(key, blobKind, fillWith(want, &calls))
			if err != nil {
				t.Fatalf("corrupt entry surfaced as error: %v", err)
			}
			if src != Filled {
				t.Errorf("source %v, want Filled (corrupt entry must be a miss)", src)
			}
			if !bytes.Equal(v.([]byte), want) {
				t.Error("fallback produced a wrong value")
			}
			if st := s2.Stats(); st.DiskErrors == 0 {
				t.Errorf("corruption not counted: %+v", st)
			}
			// The refill must have replaced the broken entry with a good
			// one: a third store reads it from disk.
			s3, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, src, err := s3.GetOrFill(key, blobKind, fillWith(want, &calls)); err != nil || src != Disk {
				t.Errorf("after refill: src=%v err=%v, want a clean disk hit", src, err)
			}
			if raw, err := os.ReadFile(path); err != nil || [4]byte(raw[:4]) != diskMagic {
				t.Errorf("refilled entry is not GSC2 (err %v)", err)
			}
		})
	}
}

// TestDecodeFailureIsAMiss: an entry whose checksum is intact but whose
// payload no longer decodes (foreign format) is dropped and recomputed.
func TestDecodeFailureIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	key := Key("k")
	// Store a payload that blobKind.Decode rejects (length field lies),
	// via a kind that accepts anything on encode.
	lying := blobKind
	lying.Encode = func(v any) ([]byte, error) { return []byte{9, 9, 9, 9, 1}, nil }
	if _, _, err := s1.GetOrFill(key, lying, fillWith(blob(6, 4), &calls)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := blob(6, 4)
	v, src, err := s2.GetOrFill(key, blobKind, fillWith(want, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if src != Filled || !bytes.Equal(v.([]byte), want) {
		t.Errorf("undecodable entry: src=%v, want Filled with the refilled value", src)
	}
	if st := s2.Stats(); st.DiskErrors == 0 {
		t.Errorf("decode failure not counted: %+v", st)
	}
}

// TestConcurrentFillsSingleflight: many goroutines racing on a small key
// space, with a disk tier, must agree on values and share fills. Run
// under -race this is the store's data-race soak (make check does).
func TestConcurrentFillsSingleflight(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	const workers = 32
	var fills [keys]atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ki := w % keys
			want := blob(byte(ki), 64)
			v, _, err := s.GetOrFill(Key(fmt.Sprint(ki)), blobKind, func() (any, error) {
				fills[ki].Add(1)
				return want, nil
			})
			if err != nil {
				errs[w] = err
				return
			}
			if !bytes.Equal(v.([]byte), want) {
				errs[w] = fmt.Errorf("worker %d: wrong value", w)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for ki := 0; ki < keys; ki++ {
		if n := fills[ki].Load(); n != 1 {
			t.Errorf("key %d filled %d times, want 1 (singleflight)", ki, n)
		}
	}
	if n, _ := s.DiskUsage(); n != keys {
		t.Errorf("%d disk entries, want %d", n, keys)
	}
}

// TestConcurrentStoresOneDirectory: separate stores (separate processes,
// in effect) sharing one directory interleave reads and writes safely —
// rename-on-write means a reader never observes a half-written entry.
func TestConcurrentStoresOneDirectory(t *testing.T) {
	dir := t.TempDir()
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := New(Options{Dir: dir})
			if err != nil {
				errs[w] = err
				return
			}
			for i := 0; i < 20; i++ {
				ki := i % 5
				want := blob(byte(ki), 512)
				v, _, err := s.GetOrFill(Key(fmt.Sprint(ki)), blobKind, func() (any, error) {
					return want, nil
				})
				if err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(v.([]byte), want) {
					errs[w] = fmt.Errorf("worker %d iter %d: wrong value", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestObjectLayout: entries land under objects/ab/cdef... split by the
// first key byte, so directories stay small.
func TestObjectLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	key := Key("layout")
	if _, _, err := s.GetOrFill(key, blobKind, fillWith(blob(7, 16), &calls)); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "objects", key[:2], key[2:])
	if _, err := os.Stat(want); err != nil {
		t.Errorf("entry not at %s: %v", want, err)
	}
}

// TestDiskEntriesAreCompressed: redundant payloads land on disk as GSC2
// flate entries smaller than the raw artifact, and round-trip
// byte-identically.
func TestDiskEntriesAreCompressed(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Highly redundant payload, like SOF bytes.
	want := make([]byte, 4+8192)
	binary.LittleEndian.PutUint32(want, 8192)
	copy(want[4:], bytes.Repeat([]byte("section .text mov add ret "), 316))
	var calls atomic.Int64
	key := Key("comp")
	if _, _, err := s.GetOrFill(key, blobKind, fillWith(want, &calls)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if [4]byte(raw[:4]) != diskMagic {
		t.Fatalf("new entry has magic %q, want GSC2", raw[:4])
	}
	if raw[diskHeaderLen] != formatFlate {
		t.Errorf("redundant payload stored with format %d, want flate", raw[diskHeaderLen])
	}
	if len(raw) >= len(want) {
		t.Errorf("on-disk entry %d bytes >= raw payload %d: compression bought nothing", len(raw), len(want))
	}
	// Warm restart reads back the identical bytes.
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, src, err := s2.GetOrFill(key, blobKind, fillWith(want, &calls))
	if err != nil || src != Disk {
		t.Fatalf("warm get: src=%v err=%v", src, err)
	}
	if !bytes.Equal(v.([]byte), want) {
		t.Error("compressed round trip is not byte-identical")
	}
	if calls.Load() != 1 {
		t.Errorf("fill ran %d times, want 1", calls.Load())
	}
}

// TestGCSweepsOldestFirst: a sweep brings the disk tier under budget by
// evicting the oldest entries and keeps newer ones; the stale temp file
// a crashed writer left is reclaimed when the sweeping store opens.
func TestGCSweepsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	writer, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	var keys []string
	for i := 0; i < 6; i++ {
		key := Key(fmt.Sprint("gc", i))
		keys = append(keys, key)
		if _, _, err := writer.GetOrFill(key, blobKind, fillWith(blob(byte(i), 400), &calls)); err != nil {
			t.Fatal(err)
		}
		// Stamp ascending ages: entry 0 is the oldest.
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(writer.objectPath(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	stale := filepath.Join(dir, "objects", "aa", ".tmp-stale")
	os.MkdirAll(filepath.Dir(stale), 0o755)
	os.WriteFile(stale, []byte("junk"), 0o644)
	old := time.Now().Add(-2 * time.Hour)
	os.Chtimes(stale, old, old)

	// A fresh store (a separate process: nothing touched yet) sweeps down
	// to roughly half the footprint.
	sweeper, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, total := sweeper.DiskUsage()
	res, err := sweeper.GC(total / 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 6 || res.Removed == 0 {
		t.Fatalf("gc = %+v, want 6 scanned and some removed", res)
	}
	if _, after := sweeper.DiskUsage(); after > total/2 {
		t.Errorf("disk tier holds %d bytes after sweep, budget %d", after, total/2)
	}
	// Victims are the oldest prefix: if entry i survived, so did all
	// younger entries.
	gone := 0
	for i, key := range keys {
		_, err := os.Stat(sweeper.objectPath(key))
		missing := os.IsNotExist(err)
		if missing {
			gone++
			if i != gone-1 {
				t.Errorf("entry %d evicted out of age order", i)
			}
		}
	}
	if gone != res.Removed {
		t.Errorf("%d entries missing, gc reported %d removed", gone, res.Removed)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived reopen")
	}
}

// TestGCSparesTouchedEntries: an entry the sweeping store has read is
// never evicted, no matter how old it looks — the sweep cannot pull an
// artifact out from under the run using it.
func TestGCSparesTouchedEntries(t *testing.T) {
	dir := t.TempDir()
	writer, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	oldKey, newKey := Key("old"), Key("new")
	want := blob(9, 400)
	for _, key := range []string{oldKey, newKey} {
		if _, _, err := writer.GetOrFill(key, blobKind, fillWith(want, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	ancient := time.Now().Add(-100 * time.Hour)
	os.Chtimes(writer.objectPath(oldKey), ancient, ancient)

	sweeper, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Reading oldKey marks it touched (and refreshes its mtime); then a
	// sweep to zero budget must spare it while evicting newKey.
	if _, src, err := sweeper.GetOrFill(oldKey, blobKind, fillWith(want, &calls)); err != nil || src != Disk {
		t.Fatalf("read before sweep: src=%v err=%v", src, err)
	}
	res, err := sweeper.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sweeper.objectPath(oldKey)); err != nil {
		t.Error("sweep evicted an entry this store had read")
	}
	if _, err := os.Stat(sweeper.objectPath(newKey)); !os.IsNotExist(err) {
		t.Error("sweep spared an untouched entry at zero budget")
	}
	if res.Removed != 1 {
		t.Errorf("gc removed %d entries, want 1", res.Removed)
	}
}

// TestGCConcurrentWithReads: sweeps racing cache traffic never produce a
// wrong value or an error — at worst a refetch. This is the GC data-race
// soak under make check's -race run.
func TestGCConcurrentWithReads(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	vals := map[string][]byte{}
	for i := 0; i < keys; i++ {
		key := Key(fmt.Sprint("race", i))
		vals[key] = blob(byte(i), 512)
	}
	var wg sync.WaitGroup
	errs := make([]error, keys+1)
	i := 0
	for key, want := range vals {
		wg.Add(1)
		go func(w int, key string, want []byte) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				v, _, err := s.GetOrFill(key, blobKind, func() (any, error) {
					return want, nil
				})
				if err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(v.([]byte), want) {
					errs[w] = fmt.Errorf("key %d iter %d: wrong value", w, iter)
					return
				}
			}
		}(i, key, want)
		i++
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 20; iter++ {
			if _, err := s.GC(600); err != nil {
				errs[keys] = err
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
