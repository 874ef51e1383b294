package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gosplice/internal/store"
	"gosplice/internal/telemetry"
)

// injected reads how many faults of kind k plan p fired.
func injected(p *Plan, k Kind) uint64 {
	return p.Metrics().Counter(MetricFired, telemetry.L("kind", k.String())).Value()
}

func TestPlanAppliesScheduledFaults(t *testing.T) {
	p := New(
		Fault{Op: 1, Kind: Truncate, Offset: 3},
		Fault{Op: 2, Kind: FlipBit, Offset: 1, Bit: 0},
		Fault{Op: 3, Kind: Error},
		Fault{Op: 4, Kind: Delay, Sleep: time.Millisecond},
	)
	in := []byte{1, 2, 3, 4, 5}

	got, err := p.Apply(in)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("op 1: %v %v, want truncation to 3 bytes", got, err)
	}
	if !bytes.Equal(in, []byte{1, 2, 3, 4, 5}) {
		t.Error("input mutated by truncate")
	}

	got, err = p.Apply(in)
	if err != nil || !bytes.Equal(got, []byte{1, 3, 3, 4, 5}) {
		t.Errorf("op 2: %v %v, want bit 0 of byte 1 flipped", got, err)
	}
	if !bytes.Equal(in, []byte{1, 2, 3, 4, 5}) {
		t.Error("input mutated by flip-bit")
	}

	if _, err := p.Apply(in); err == nil {
		t.Error("op 3: planned error did not fire")
	}

	t0 := time.Now()
	if got, err := p.Apply(in); err != nil || !bytes.Equal(got, in) {
		t.Errorf("op 4: %v %v, want payload untouched", got, err)
	}
	if time.Since(t0) < time.Millisecond {
		t.Error("op 4: delay did not fire")
	}

	// Past the schedule: clean pass-through.
	if got, err := p.Apply(in); err != nil || !bytes.Equal(got, in) {
		t.Errorf("op 5: %v %v, want clean", got, err)
	}

	st := p.Metrics().Snapshot()
	if ops, fired := st.Counter(MetricOps), st.CounterFamily(MetricFired); ops != 5 || fired != 4 {
		t.Errorf("%d ops / %d fired, want 5 ops / 4 fired", ops, fired)
	}
	for _, k := range []Kind{Error, Truncate, FlipBit, Delay} {
		if n := injected(p, k); n != 1 {
			t.Errorf("%v fired %d times, want 1", k, n)
		}
	}
}

// TestFromSeedIsDeterministic: the same seed yields the same plan, and a
// dense-enough plan covers every fault class.
func TestFromSeedIsDeterministic(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 2048)
	run := func() ([]string, *Plan) {
		p := FromSeed(42, 40, 0.5)
		var outs []string
		for i := 0; i < 40; i++ {
			b, err := p.Apply(payload)
			outs = append(outs, fmt.Sprintf("%d/%v", len(b), err != nil))
			_ = b
		}
		return outs, p
	}
	a, pa := run()
	b, pb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged across identical seeds: %s vs %s", i+1, a[i], b[i])
		}
	}
	if sa, sb := pa.Metrics().Snapshot().Counters, pb.Metrics().Snapshot().Counters; !reflect.DeepEqual(sa, sb) {
		t.Errorf("plan counters diverged: %v vs %v", sa, sb)
	}
	for _, k := range []Kind{Error, Truncate, FlipBit, Delay} {
		if injected(pa, k) == 0 {
			t.Errorf("seed plan never injected %v", k)
		}
	}
	// A different seed yields a different plan.
	p2 := FromSeed(43, 40, 0.5)
	differs := false
	for i := 0; i < 40; i++ {
		b2, err2 := p2.Apply(payload)
		if a[i] != fmt.Sprintf("%d/%v", len(b2), err2 != nil) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical fault observations")
	}
}

// blobKind mirrors the store tests' self-describing payload so decode
// failures are structurally detectable.
var blobKind = store.Kind{
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
			return nil, fmt.Errorf("blob length lies")
		}
		return append([]byte(nil), b...), nil
	},
}

// TestPlanWrapsStoreDiskTier: a fault plan applied to the bytes of a
// store's disk entry corrupts what the next store reads, and the store's
// verification turns every corruption into a miss — the filled value is
// always correct, never the corrupted bytes. A planned error replaces the
// entry with a directory, which os.ReadFile refuses to read.
func TestPlanWrapsStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	want := make([]byte, 4+600)
	binary.LittleEndian.PutUint32(want, 600)
	for i := range want[4:] {
		want[4+i] = byte(i)
	}
	seed, err := store.New(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key("chaos")
	if _, _, err := seed.GetOrFill(key, blobKind, func() (any, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("disk entries %v, %v: want exactly one", entries, err)
	}
	entry := entries[0]
	good, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	// Before each store opens, the entry is rewritten through a hostile
	// plan: ops 1-4 are error, truncation, bit flip, delay.
	plan := New(
		Fault{Op: 1, Kind: Error},
		Fault{Op: 2, Kind: Truncate, Offset: 10},
		Fault{Op: 3, Kind: FlipBit, Offset: 50, Bit: 3},
		Fault{Op: 4, Kind: Delay, Sleep: time.Millisecond},
	)
	var fills atomic.Int64
	for op := 1; op <= 4; op++ {
		if err := os.RemoveAll(entry); err != nil {
			t.Fatal(err)
		}
		if b, ferr := plan.Apply(good); ferr != nil {
			err = os.Mkdir(entry, 0o755)
		} else {
			err = os.WriteFile(entry, b, 0o600)
		}
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.New(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		v, src, err := s.GetOrFill(key, blobKind, func() (any, error) {
			fills.Add(1)
			return want, nil
		})
		if err != nil {
			t.Fatalf("op %d: corrupted read surfaced as error: %v", op, err)
		}
		if !bytes.Equal(v.([]byte), want) {
			t.Fatalf("op %d: store served corrupt bytes", op)
		}
		// Ops 1-3 corrupt: must be a recompute. Op 4 only delays: the
		// entry reads fine from disk.
		if op <= 3 && src != store.Filled {
			t.Errorf("op %d: source %v, want Filled", op, src)
		}
		if op == 4 && src != store.Disk {
			t.Errorf("op %d: source %v, want Disk", op, src)
		}
	}
	if fills.Load() != 3 {
		t.Errorf("fill ran %d times, want 3 (one per corruption)", fills.Load())
	}
	if n := plan.Metrics().Snapshot().CounterFamily(MetricFired); n != 4 {
		t.Errorf("plan fired %d faults, want 4", n)
	}
}
