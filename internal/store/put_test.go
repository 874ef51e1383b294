package store

import (
	"bytes"
	"fmt"
	"testing"
)

var (
	key1   = Key("put-test", "one")
	badKey = Key("put-test", "bad")
	memKey = Key("put-test", "mem")
)

var bytesKind = Kind{
	Name:   "bytes",
	Size:   func(v any) int64 { return int64(len(v.([]byte))) },
	Encode: func(v any) ([]byte, error) { return v.([]byte), nil },
	Decode: func(b []byte) (any, error) {
		if len(b) > 0 && b[0] == 0xff {
			return nil, fmt.Errorf("poisoned payload")
		}
		return append([]byte(nil), b...), nil
	},
}

// TestPutSeedsBothTiers: an imported payload is served from memory, and
// from disk by a second store over the same directory — the subscriber
// warm-start path.
func TestPutSeedsBothTiers(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("imported"), 100)
	if _, err := s.Put(key1, bytesKind, payload); err != nil {
		t.Fatal(err)
	}
	filled := false
	v, src, err := s.GetOrFill(key1, bytesKind, func() (any, error) {
		filled = true
		return nil, fmt.Errorf("must not fill")
	})
	if err != nil || filled {
		t.Fatalf("GetOrFill after Put: err=%v filled=%v", err, filled)
	}
	if src != Mem || !bytes.Equal(v.([]byte), payload) {
		t.Fatalf("got src=%v, wrong bytes=%v", src, !bytes.Equal(v.([]byte), payload))
	}

	// A fresh store over the same directory sees the entry on disk.
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, src, err = s2.GetOrFill(key1, bytesKind, func() (any, error) { return nil, fmt.Errorf("must not fill") })
	if err != nil || src != Disk || !bytes.Equal(v.([]byte), payload) {
		t.Fatalf("fresh store: src=%v err=%v", src, err)
	}
}

// TestPutRejectsUndecodablePayload: a payload the kind cannot decode is
// refused outright — nothing enters either tier.
func TestPutRejectsUndecodablePayload(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(badKey, bytesKind, []byte{0xff, 1, 2}); err == nil {
		t.Fatal("Put accepted an undecodable payload")
	}
	if _, src, _ := s.GetOrFill(badKey, bytesKind, func() (any, error) { return []byte("filled"), nil }); src != Filled {
		t.Fatalf("rejected payload is present in the store (src=%v)", src)
	}
}

// TestPutMemoryOnlyStore: Put works without a disk tier.
func TestPutMemoryOnlyStore(t *testing.T) {
	s := MustNew(Options{})
	if _, err := s.Put(memKey, bytesKind, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, src, _ := s.GetOrFill(memKey, bytesKind, func() (any, error) { return nil, fmt.Errorf("must not fill") }); src != Mem {
		t.Fatalf("memory-only store lost the Put entry (src=%v)", src)
	}
}
