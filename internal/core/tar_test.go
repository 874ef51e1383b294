package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestUpdateTarRoundTrip(t *testing.T) {
	tree := testTree()
	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{Name: "ksplice-tar"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := u.WriteTar(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != u.Name || got.KernelVersion != u.KernelVersion ||
		got.Compiler != u.Compiler || got.PatchLines != u.PatchLines {
		t.Errorf("metadata mismatch: %+v vs %+v", got, u)
	}
	if len(got.Units) != len(u.Units) {
		t.Fatalf("units: %d vs %d", len(got.Units), len(u.Units))
	}
	for i := range got.Units {
		a, b := got.Units[i], u.Units[i]
		if a.Path != b.Path || !eqStrings(a.Patched, b.Patched) || !eqStrings(a.New, b.New) {
			t.Errorf("unit %d mismatch: %+v vs %+v", i, a, b)
		}
		if !filesEqual(a.Primary, b.Primary) {
			t.Errorf("unit %s primary round-trip mismatch", a.Path)
		}
		if (a.Helper == nil) != (b.Helper == nil) {
			t.Errorf("unit %s helper presence mismatch", a.Path)
		}
		if a.Helper != nil && !filesEqual(a.Helper, b.Helper) {
			t.Errorf("unit %s helper round-trip mismatch", a.Path)
		}
	}

	// A round-tripped update still applies.
	k := boot(t, testTree())
	m := NewManager(k)
	if _, err := m.Apply(got, ApplyOptions{}); err != nil {
		t.Fatalf("apply after round trip: %v", err)
	}

	// Reproducibility: serializing twice yields identical bytes.
	var buf2 bytes.Buffer
	if err := u.WriteTar(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("tarball serialization is not reproducible")
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReadTarErrors(t *testing.T) {
	if _, err := ReadTar(strings.NewReader("not a tar")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := ReadTar(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

// TestTarDigestVerification: the EncodeTar digest identifies the exact
// bytes, and ReadTarVerified refuses anything that diverges from it —
// truncation, bit flips, wrong size — with a typed IntegrityError, before
// the bytes are ever parsed.
func TestTarDigestVerification(t *testing.T) {
	tree := testTree()
	u, err := CreateUpdate(tree, setuidPatch, CreateOptions{Name: "ksplice-digest"})
	if err != nil {
		t.Fatal(err)
	}
	b, digest, size, err := u.EncodeTar()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != size {
		t.Fatalf("size %d, bytes %d", size, len(b))
	}
	if d, n := TarDigest(b); d != digest || n != size {
		t.Fatalf("TarDigest disagrees with EncodeTar: %s/%d vs %s/%d", d, n, digest, size)
	}

	// Clean bytes verify and parse.
	got, err := ReadTarVerified(b, digest, size)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != u.Name {
		t.Errorf("round trip name %q", got.Name)
	}

	var ie *IntegrityError
	// Truncated download.
	if _, err := ReadTarVerified(b[:len(b)-7], digest, size); !errorsAs(err, &ie) {
		t.Errorf("truncation: err = %v, want IntegrityError", err)
	}
	// Flipped bit, size intact.
	flipped := append([]byte(nil), b...)
	flipped[len(flipped)/2] ^= 0x20
	if _, err := ReadTarVerified(flipped, digest, size); !errorsAs(err, &ie) {
		t.Errorf("bit flip: err = %v, want IntegrityError", err)
	}
	// Wrong expected size.
	if _, err := ReadTarVerified(b, digest, size+1); !errorsAs(err, &ie) {
		t.Errorf("size mismatch: err = %v, want IntegrityError", err)
	}
}

func errorsAs(err error, target *(*IntegrityError)) bool {
	return errors.As(err, target)
}

// FuzzReadTar feeds ReadTar arbitrary bytes, as a subscriber receives an
// update tarball; obj.Read parses every member. It must not panic, and
// an update it accepts must be a fixpoint of the encoding: WriteTar →
// ReadTar → WriteTar gives the same bytes. The seeds under
// testdata/fuzz/FuzzReadTar are a tarball of setuidPatch's update, a
// truncated copy and a copy with one bit flipped.
func FuzzReadTar(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		u, err := ReadTar(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := u.WriteTar(&first); err != nil {
			t.Fatalf("WriteTar of an accepted update: %v", err)
		}
		v, err := ReadTar(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadTar refuses WriteTar's output: %v", err)
		}
		if err := v.WriteTar(&second); err != nil {
			t.Fatalf("WriteTar after a round trip: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteTar → ReadTar → WriteTar changed the bytes (%d → %d)", first.Len(), second.Len())
		}
	})
}
