package diffutil

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
)

// mutate returns a copy of b with roughly edits random byte-level edits
// (insertions, deletions, overwrites, and block moves) — the shape of
// change between two adjacent published blobs.
func mutate(rng *rand.Rand, b []byte, edits int) []byte {
	out := append([]byte(nil), b...)
	for e := 0; e < edits; e++ {
		if len(out) == 0 {
			out = append(out, byte(rng.Intn(256)))
			continue
		}
		switch rng.Intn(4) {
		case 0: // overwrite a run
			i := rng.Intn(len(out))
			n := 1 + rng.Intn(16)
			for j := i; j < len(out) && j < i+n; j++ {
				out[j] = byte(rng.Intn(256))
			}
		case 1: // insert a run
			i := rng.Intn(len(out) + 1)
			ins := make([]byte, 1+rng.Intn(64))
			rng.Read(ins)
			out = append(out[:i], append(ins, out[i:]...)...)
		case 2: // delete a run
			i := rng.Intn(len(out))
			n := 1 + rng.Intn(32)
			if i+n > len(out) {
				n = len(out) - i
			}
			out = append(out[:i], out[i+n:]...)
		case 3: // move a block (tar members reordering)
			if len(out) < 128 {
				continue
			}
			i := rng.Intn(len(out) - 64)
			n := 64
			blk := append([]byte(nil), out[i:i+n]...)
			out = append(out[:i], out[i+n:]...)
			j := rng.Intn(len(out) + 1)
			out = append(out[:j], append(blk, out[j:]...)...)
		}
	}
	return out
}

// TestDeltaRoundTripProperty: for random bases and random mutations of
// them, ApplyDelta(base, digest(base), MakeDelta(base, target), len(target)) ==
// target, and related targets produce deltas much smaller than the
// target itself.
func TestDeltaRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		base := make([]byte, rng.Intn(16<<10))
		rng.Read(base)
		var target []byte
		switch trial % 4 {
		case 0:
			target = mutate(rng, base, 1+rng.Intn(8))
		case 1: // unrelated blob: correctness must hold, size may not shrink
			target = make([]byte, rng.Intn(8<<10))
			rng.Read(target)
		case 2: // pure append (a growing log / added tar member)
			extra := make([]byte, rng.Intn(2<<10))
			rng.Read(extra)
			target = append(append([]byte(nil), base...), extra...)
		case 3: // pure prefix strip
			target = append([]byte(nil), base[rng.Intn(len(base)+1):]...)
		}
		d := MakeDelta(base, target)
		got, err := ApplyDelta(base, digest(base), d, int64(len(target)))
		if err != nil {
			t.Fatalf("trial %d: ApplyDelta: %v (base=%d target=%d delta=%d)", trial, err, len(base), len(target), len(d))
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("trial %d: round trip produced different bytes", trial)
		}
		if trial%4 == 0 && len(target) > 4096 && len(d) > len(target)/2 {
			t.Fatalf("trial %d: delta of a lightly mutated %d-byte blob is %d bytes — no compression", trial, len(target), len(d))
		}
	}
}

func TestDeltaEdgeCases(t *testing.T) {
	cases := []struct{ base, target []byte }{
		{nil, nil},
		{nil, []byte("hello")},
		{[]byte("hello"), nil},
		{[]byte("hello"), []byte("hello")},
		{bytes.Repeat([]byte{0}, 4096), bytes.Repeat([]byte{0}, 8192)},
		{[]byte("short"), bytes.Repeat([]byte("abcdefgh"), 1024)},
	}
	for i, c := range cases {
		d := MakeDelta(c.base, c.target)
		got, err := ApplyDelta(c.base, digest(c.base), d, int64(len(c.target)))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, c.target) {
			t.Fatalf("case %d: wrong reconstruction", i)
		}
	}
}

// TestDeltaIdenticalBlobIsTiny: the degenerate self-delta collapses to a
// header plus one copy op.
func TestDeltaIdenticalBlobIsTiny(t *testing.T) {
	b := bytes.Repeat([]byte("the quick brown fox "), 512)
	d := MakeDelta(b, b)
	if len(d) > 128 {
		t.Fatalf("self-delta of a %d-byte blob is %d bytes", len(b), len(d))
	}
}

// TestDeltaWrongBaseRefused: applying against any blob other than the
// true base is a typed *DeltaBaseError, the caller's fall-back-to-full
// signal.
func TestDeltaWrongBaseRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 4096)
	rng.Read(base)
	target := mutate(rng, base, 4)
	d := MakeDelta(base, target)
	wrong := append([]byte(nil), base...)
	wrong[100] ^= 1
	_, err := ApplyDelta(wrong, digest(wrong), d, int64(len(target)))
	var be *DeltaBaseError
	if !errors.As(err, &be) {
		t.Fatalf("wrong base: got %v, want *DeltaBaseError", err)
	}
}

// TestDeltaMislabeledBaseRefused: a caller that passes the true base's
// digest with other bytes gets an error, never wrong bytes. ApplyDelta
// takes the digest on trust, so the reconstruction's own hash is what
// catches the lie.
func TestDeltaMislabeledBaseRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 4096)
	rng.Read(base)
	target := mutate(rng, base, 4)
	d := MakeDelta(base, target)
	for _, i := range []int{0, 100, len(base) - 1} {
		wrong := append([]byte(nil), base...)
		wrong[i] ^= 1
		if got, err := ApplyDelta(wrong, digest(base), d, int64(len(target))); err == nil {
			t.Errorf("base flipped at byte %d under the true digest: applied (%d bytes, equal %v)", i, len(got), bytes.Equal(got, target))
		}
	}
}

// digest is b's hex sha256, the digest a blob cache keys b under.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDeltaCorruptionRefused: every single-bit corruption of the delta
// either still reconstructs the exact target (a flip in dead space) or
// returns an error — never silently wrong bytes. Truncations likewise.
func TestDeltaCorruptionRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 8192)
	rng.Read(base)
	target := mutate(rng, base, 6)
	d := MakeDelta(base, target)

	for trial := 0; trial < 300; trial++ {
		c := append([]byte(nil), d...)
		c[rng.Intn(len(c))] ^= 1 << rng.Intn(8)
		got, err := ApplyDelta(base, digest(base), c, int64(len(target)))
		if err == nil && !bytes.Equal(got, target) {
			t.Fatalf("bit-flipped delta reconstructed wrong bytes without error")
		}
	}
	for cut := 0; cut < len(d); cut += 7 {
		got, err := ApplyDelta(base, digest(base), d[:cut], int64(len(target)))
		if err == nil && !bytes.Equal(got, target) {
			t.Fatalf("delta truncated to %d bytes reconstructed wrong bytes without error", cut)
		}
	}
	if _, err := ApplyDelta(base, digest(base), []byte("not a delta at all"), int64(len(target))); !errors.Is(err, ErrNotDelta) {
		t.Fatalf("garbage input: got %v, want ErrNotDelta", err)
	}
}

// TestDeltaDeterministic: the encoder is a pure function — manifests
// advertise delta digests, so byte-stable output is part of the format.
func TestDeltaDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]byte, 10000)
	rng.Read(base)
	target := mutate(rng, base, 10)
	d1 := MakeDelta(base, target)
	d2 := MakeDelta(base, target)
	if !bytes.Equal(d1, d2) {
		t.Fatal("MakeDelta is not deterministic")
	}
}

// allocBytes reports how many heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileDelta builds a delta against base whose header declares
// targetLen and whose op stream is opsLen bytes of zeros, compressed.
func hostileDelta(t *testing.T, base []byte, targetLen uint64, opsLen int64) []byte {
	t.Helper()
	baseSum := sha256.Sum256(base)
	d := append([]byte(deltaMagic), baseSum[:]...)
	d = append(d, make([]byte, sha256.Size)...)
	buf := bytes.NewBuffer(binary.AppendUvarint(d, targetLen))
	w, _ := flate.NewWriter(buf, flate.BestCompression)
	if _, err := io.CopyN(w, zeros{}, opsLen); err != nil {
		t.Fatal(err)
	}
	w.Close()
	return buf.Bytes()
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestDeltaHostileHeaderBoundsAllocation: ApplyDelta's header is
// untrusted, so neither a tiny delta that declares a 1 GiB target nor a
// flate bomb may make it allocate what they claim, even when the caller
// expects that length. Both fail, each allocating well under 64 MiB.
func TestDeltaHostileHeaderBoundsAllocation(t *testing.T) {
	base := []byte("the base blob")
	for _, tc := range []struct {
		name      string
		targetLen uint64
		opsLen    int64
		maxDelta  int
	}{
		{"1GiB-claim", 1 << 30, 16, 96},
		{"flate-bomb", 4096, 64 << 20, 128 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := hostileDelta(t, base, tc.targetLen, tc.opsLen)
			if len(d) > tc.maxDelta {
				t.Fatalf("hostile delta is %d bytes, want at most %d", len(d), tc.maxDelta)
			}
			var err error
			baseDigest := digest(base)
			n := allocBytes(func() { _, err = ApplyDelta(base, baseDigest, d, int64(tc.targetLen)) })
			if err == nil {
				t.Fatal("hostile delta applied")
			}
			if n >= 64<<20 {
				t.Errorf("ApplyDelta allocated %d MiB before failing, want under 64", n>>20)
			}
		})
	}
}

// TestDeltaLengthBoundByCaller: a well-formed delta whose header
// declares more than the caller's expected length (the manifest entry's
// size) is refused before anything is inflated, so the refusal
// allocates less than the expected length, let alone the declared one.
func TestDeltaLengthBoundByCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, 1<<20)
	rng.Read(base)
	target := mutate(rng, base, 8)
	d := MakeDelta(base, target)
	// allocBytes counts the whole process, so take the least of three
	// measurements to keep background allocation out of the figure.
	const entrySize = 64 << 10
	var err error
	baseDigest := digest(base)
	n := uint64(math.MaxUint64)
	for range 3 {
		n = min(n, allocBytes(func() { _, err = ApplyDelta(base, baseDigest, d, entrySize) }))
	}
	if err == nil {
		t.Fatal("delta declaring more than the expected length applied")
	}
	if n >= entrySize {
		t.Errorf("refusal allocated %d bytes, want under the %d-byte expected length", n, entrySize)
	}
	// One byte more than expected is refused too; the exact length applies.
	if _, err := ApplyDelta(base, digest(base), d, int64(len(target)-1)); err == nil {
		t.Error("delta declaring one byte more than expected applied")
	}
	if got, err := ApplyDelta(base, digest(base), d, int64(len(target))); err != nil || !bytes.Equal(got, target) {
		t.Errorf("exact expected length: err=%v", err)
	}
}

// FuzzApplyDelta: a delta is untrusted wire input. Whatever the base,
// delta and caller-expected length, ApplyDelta does not panic and
// allocates no more than a small multiple of what it was handed and
// asked to build; and for the fuzzed base and target bytes, a delta
// MakeDelta produced reconstructs the target exactly.
func FuzzApplyDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// Seeds stay a few hundred bytes long: the fuzzer minimizes every
	// new input byte by byte, at one MakeDelta per candidate.
	text := bytes.Repeat([]byte("int f(void) { return 1; }\n"), 8)
	for _, c := range []struct{ base, target []byte }{
		{nil, nil},
		{nil, []byte("hello")},
		{[]byte("hello"), nil},
		{text, text},
		{text, mutate(rng, text, 3)},
		{random(256), random(64)},
		{bytes.Repeat([]byte{0}, 128), bytes.Repeat([]byte{0}, 512)},
	} {
		f.Add(c.base, c.target, MakeDelta(c.base, c.target), int64(len(c.target)))
	}

	// Heap allocation is read through runtime/metrics, which, unlike
	// runtime.ReadMemStats, does not stop the world on every input.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, base, target, delta []byte, targetLen int64) {
		baseDigest := digest(base)
		before := allocated()
		out, err := ApplyDelta(base, baseDigest, delta, targetLen)
		alloc := allocated() - before
		if err == nil && int64(len(out)) != targetLen {
			t.Errorf("applied delta returned %d bytes, caller expected %d", len(out), targetLen)
		}
		// The op stream may inflate to twice the target length and
		// io.ReadAll's doublings add as much again, hence the factor; the
		// constant covers the inflater's window and the span-sized
		// granularity of the runtime's allocation count. A length past
		// deltaMaxTarget is refused before anything is allocated.
		asked := uint64(min(max(targetLen, 0), deltaMaxTarget))
		if limit := 8*(uint64(len(base)+len(delta))+asked) + 1<<20; alloc > limit {
			t.Errorf("applying a %d-byte delta to a %d-byte base for %d bytes allocated %d, want at most %d",
				len(delta), len(base), targetLen, alloc, limit)
		}

		got, err := ApplyDelta(base, digest(base), MakeDelta(base, target), int64(len(target)))
		if err != nil {
			t.Fatalf("round trip of a %d-byte target over a %d-byte base: %v", len(target), len(base), err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("round trip of a %d-byte target over a %d-byte base returned different bytes", len(target), len(base))
		}
	})
}
