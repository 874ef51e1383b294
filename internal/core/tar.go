package core

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"gosplice/internal/obj"
)

// The on-disk update format (the "Ksplice update tarball" of section 5):
// a tar archive containing metadata.json plus one SOF object per unit
// payload under primary/ and helper/.

type tarMeta struct {
	Name          string   `json:"name"`
	KernelVersion string   `json:"kernel_version"`
	Compiler      string   `json:"compiler"`
	PatchLines    int      `json:"patch_lines"`
	PatchText     string   `json:"patch_text,omitempty"`
	Units         []tmUnit `json:"units"`
}

type tmUnit struct {
	Path            string   `json:"path"`
	Patched         []string `json:"patched,omitempty"`
	New             []string `json:"new,omitempty"`
	DataInitChanges []string `json:"data_init_changes,omitempty"`
	NewData         []string `json:"new_data,omitempty"`
	Removed         []string `json:"removed,omitempty"`
	HasHelper       bool     `json:"has_helper"`
}

// unitFileName flattens a unit path for use as an archive member name.
func unitFileName(path string) string {
	return strings.ReplaceAll(path, "/", "__") + ".sof"
}

// WriteTar serializes the update as a tarball.
func (u *Update) WriteTar(w io.Writer) error {
	tw := tar.NewWriter(w)
	meta := tarMeta{
		Name:          u.Name,
		KernelVersion: u.KernelVersion,
		Compiler:      u.Compiler,
		PatchLines:    u.PatchLines,
		PatchText:     u.PatchText,
	}
	for _, uu := range u.Units {
		meta.Units = append(meta.Units, tmUnit{
			Path: uu.Path, Patched: uu.Patched, New: uu.New,
			DataInitChanges: uu.DataInitChanges, NewData: uu.NewData,
			Removed: uu.Removed, HasHelper: uu.Helper != nil,
		})
	}
	mb, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	add := func(name string, body []byte) error {
		hdr := &tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(body)),
			ModTime: time.Unix(0, 0), // reproducible archives
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(body)
		return err
	}
	if err := add("metadata.json", mb); err != nil {
		return err
	}
	for _, uu := range u.Units {
		var buf bytes.Buffer
		if err := uu.Primary.Write(&buf); err != nil {
			return err
		}
		if err := add("primary/"+unitFileName(uu.Path), buf.Bytes()); err != nil {
			return err
		}
		if uu.Helper != nil {
			buf.Reset()
			if err := uu.Helper.Write(&buf); err != nil {
				return err
			}
			if err := add("helper/"+unitFileName(uu.Path), buf.Bytes()); err != nil {
				return err
			}
		}
	}
	return tw.Close()
}

// EncodeTar serializes the update and returns the tarball bytes together
// with their hex sha256 digest and size — the integrity identity a
// distribution channel publishes alongside the tarball. WriteTar is
// deterministic, so the digest is stable for a given update.
func (u *Update) EncodeTar() (b []byte, digest string, size int64, err error) {
	var buf bytes.Buffer
	if err := u.WriteTar(&buf); err != nil {
		return nil, "", 0, err
	}
	digest, size = TarDigest(buf.Bytes())
	return buf.Bytes(), digest, size, nil
}

// TarDigest returns the hex sha256 digest and size of tarball bytes.
func TarDigest(b []byte) (string, int64) {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), int64(len(b))
}

// IntegrityError reports tarball bytes that do not match their published
// digest or size — a truncated download, a flipped bit, a corrupt file.
// Callers that fetched the bytes over an unreliable path should treat it
// as retriable; the bytes must never reach Apply.
type IntegrityError struct {
	WantDigest, GotDigest string
	WantSize, GotSize     int64
}

func (e *IntegrityError) Error() string {
	if e.WantSize != e.GotSize {
		return fmt.Sprintf("core: tarball is %d bytes, expected %d", e.GotSize, e.WantSize)
	}
	return fmt.Sprintf("core: tarball digest %.12s…, expected %.12s…", e.GotDigest, e.WantDigest)
}

// ReadTarVerified checks b against its published digest and size before
// parsing — the end-to-end integrity gate between a distribution channel
// and Apply. A mismatch returns an *IntegrityError and the bytes are
// never interpreted. The update decodes in place (see DecodeTar), so b
// must not be modified while it is in use.
func ReadTarVerified(b []byte, digest string, size int64) (*Update, error) {
	gotDigest, gotSize := TarDigest(b)
	if gotSize != size || gotDigest != digest {
		return nil, &IntegrityError{
			WantDigest: digest, GotDigest: gotDigest,
			WantSize: size, GotSize: gotSize,
		}
	}
	return DecodeTar(b)
}

// ReadTar reads an update tarball from r to the end and decodes it with
// DecodeTar, so the update owns its memory.
func ReadTar(r io.Reader) (*Update, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading update tar: %w", err)
	}
	return DecodeTar(b)
}

// ErrDuplicateMember reports a tarball that names one member twice:
// which copy is the update would be a guess.
var ErrDuplicateMember = errors.New("core: update tar names a member twice")

// ErrUnclaimedMember reports a primary/ or helper/ member that no unit
// in metadata.json claims: an object the update would silently drop.
var ErrUnclaimedMember = errors.New("core: update tar member claimed by no unit")

// sparse reports whether hdr describes a PAX sparse file, whose body
// starts with a sparse map instead of the file's bytes.
func sparse(hdr *tar.Header) bool {
	for k := range hdr.PAXRecords {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return true
		}
	}
	return false
}

// tarObject is one decoded primary/ or helper/ member.
type tarObject struct {
	name    string // archive member name
	f       *obj.File
	claimed bool
}

// DecodeTar deserializes an update tarball and validates it. Every
// member is a regular file whose body lies whole inside b, and each is
// decoded in place with obj.Decode and json.Unmarshal: the objects'
// names and section data alias b, so b must not be modified while the
// update is in use. A tarball that names a member twice
// (ErrDuplicateMember), holds an object no unit claims
// (ErrUnclaimedMember), or carries bytes after metadata.json's JSON
// value is refused.
func DecodeTar(b []byte) (*Update, error) {
	br := bytes.NewReader(b)
	tr := tar.NewReader(br)
	var meta *tarMeta
	var objs []tarObject
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading update tar: %w", err)
		}
		// Next leaves br at the member's first byte, so its body is the
		// next hdr.Size bytes of b. A sparse member's bytes are not laid
		// out that way; no update tarball has one.
		if hdr.Typeflag != tar.TypeReg || sparse(hdr) {
			return nil, fmt.Errorf("core: update member %s is not a regular file", hdr.Name)
		}
		if hdr.Size > int64(br.Len()) {
			return nil, fmt.Errorf("core: update member %s: %w", hdr.Name, io.ErrUnexpectedEOF)
		}
		off := int64(len(b)) - int64(br.Len())
		body := b[off : off+hdr.Size : off+hdr.Size]
		switch {
		case hdr.Name == "metadata.json":
			if meta != nil {
				return nil, fmt.Errorf("%w: %s", ErrDuplicateMember, hdr.Name)
			}
			meta = &tarMeta{}
			if err := json.Unmarshal(body, meta); err != nil {
				return nil, fmt.Errorf("core: update metadata: %w", err)
			}
		case strings.HasPrefix(hdr.Name, "primary/"), strings.HasPrefix(hdr.Name, "helper/"):
			f, err := obj.Decode(body)
			if err != nil {
				return nil, fmt.Errorf("core: update member %s: %w", hdr.Name, err)
			}
			objs = append(objs, tarObject{name: hdr.Name, f: f})
		default:
			return nil, fmt.Errorf("core: unexpected update member %q", hdr.Name)
		}
	}
	if meta == nil {
		return nil, fmt.Errorf("core: update tar has no metadata.json")
	}
	slices.SortFunc(objs, func(a, b tarObject) int { return strings.Compare(a.name, b.name) })
	for i := 1; i < len(objs); i++ {
		if objs[i].name == objs[i-1].name {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateMember, objs[i].name)
		}
	}
	claim := func(name string) *obj.File {
		i, ok := slices.BinarySearchFunc(objs, name, func(o tarObject, name string) int { return strings.Compare(o.name, name) })
		if !ok {
			return nil
		}
		objs[i].claimed = true
		return objs[i].f
	}
	u := &Update{
		Name:          meta.Name,
		KernelVersion: meta.KernelVersion,
		Compiler:      meta.Compiler,
		PatchLines:    meta.PatchLines,
		PatchText:     meta.PatchText,
	}
	slices.SortStableFunc(meta.Units, func(a, b tmUnit) int { return strings.Compare(a.Path, b.Path) })
	for _, mu := range meta.Units {
		fn := unitFileName(mu.Path)
		prim := claim("primary/" + fn)
		if prim == nil {
			return nil, fmt.Errorf("core: update missing primary object for %s", mu.Path)
		}
		uu := &UpdateUnit{
			Path: mu.Path, Patched: mu.Patched, New: mu.New,
			DataInitChanges: mu.DataInitChanges, NewData: mu.NewData,
			Removed: mu.Removed, Primary: prim,
		}
		if mu.HasHelper {
			if uu.Helper = claim("helper/" + fn); uu.Helper == nil {
				return nil, fmt.Errorf("core: update missing helper object for %s", mu.Path)
			}
		}
		u.Units = append(u.Units, uu)
	}
	for _, o := range objs {
		if !o.claimed {
			return nil, fmt.Errorf("%w: %s", ErrUnclaimedMember, o.name)
		}
	}
	// obj.Decode validated every object as it decoded it.
	if err := u.validate(false); err != nil {
		return nil, err
	}
	return u, nil
}
