package core

import (
	"archive/tar"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
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

// tarMember is one archive member: its name and body.
type tarMember struct {
	name string
	body []byte
}

// tarMembers splits a tarball into its members, in archive order.
func tarMembers(t *testing.T, b []byte) []tarMember {
	t.Helper()
	tr := tar.NewReader(bytes.NewReader(b))
	var ms []tarMember
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return ms
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, tarMember{hdr.Name, body})
	}
}

// buildTar writes members as a tarball the way WriteTar lays one out.
func buildTar(t *testing.T, ms []tarMember) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, m := range ms {
		hdr := &tar.Header{Name: m.name, Mode: 0o644, Size: int64(len(m.body)), ModTime: time.Unix(0, 0)}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(m.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTarErrors: ReadTar refuses junk, and refuses a well-formed
// tarball that is ambiguous about its update: a member named twice
// (whichever copy won, the other was never checked against the
// metadata), an object no unit claims (it would be dropped without a
// word), and metadata.json with bytes after its JSON value.
func TestReadTarErrors(t *testing.T) {
	if _, err := ReadTar(strings.NewReader("not a tar")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := ReadTar(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}

	u, err := CreateUpdate(testTree(), setuidPatch, CreateOptions{Name: "ksplice-ambiguous"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := u.EncodeTar()
	if err != nil {
		t.Fatal(err)
	}
	ms := tarMembers(t, b)
	if _, err := ReadTar(bytes.NewReader(buildTar(t, ms))); err != nil {
		t.Fatalf("the rebuilt tarball is refused: %v", err)
	}
	var primary tarMember
	for _, m := range ms {
		if strings.HasPrefix(m.name, "primary/") {
			primary = m
		}
	}
	if primary.name == "" {
		t.Fatal("the update has no primary member")
	}
	orphan := tarMember{"helper/zz__orphan.mc.sof", primary.body}
	doubled := append(append([]tarMember(nil), ms...), ms...)
	trailing := append([]tarMember(nil), ms...)
	trailing[0].body = append(append([]byte(nil), trailing[0].body...), "{}"...)
	for _, c := range []struct {
		name    string
		members []tarMember
		want    error
	}{
		{"duplicate metadata", append([]tarMember{ms[0]}, ms...), ErrDuplicateMember},
		{"duplicate primary", append(append([]tarMember(nil), ms...), primary), ErrDuplicateMember},
		{"every member twice plus an orphan", append(doubled, orphan), ErrDuplicateMember},
		{"unclaimed helper", append(append([]tarMember(nil), ms...), orphan), ErrUnclaimedMember},
		{"unclaimed primary", append(append([]tarMember(nil), ms...), tarMember{"primary/zz__orphan.mc.sof", primary.body}), ErrUnclaimedMember},
		{"trailing metadata bytes", trailing, nil},
	} {
		_, err := ReadTar(bytes.NewReader(buildTar(t, c.members)))
		switch {
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestReadTarVerifiedClaimedLengthBoundsAllocation: a tarball of a few
// hundred bytes whose member header claims 1 MiB — verified, so its
// bytes reach the decoder — must fail having allocated memory for the
// bytes it holds, not for the length it claims.
func TestReadTarVerifiedClaimedLengthBoundsAllocation(t *testing.T) {
	for _, name := range []string{"metadata.json", "primary/f.mc.sof"} {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: 1 << 20, ModTime: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte("SOF1{}")); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes() // the header and 6 of the 1 MiB it claims
		digest, size := TarDigest(b)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadTarVerified(b, digest, size)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated member accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s: a %d-byte tarball allocated %d KiB, want under 64 KiB", name, len(b), n>>10)
		}
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
// update tarball; obj.Decode parses every member. It must not panic, and
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
