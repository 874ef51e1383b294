// Package channel implements the paper's closing proposal (section 8):
// "one could use Ksplice to create hot update packages for common
// starting kernel configurations. People who subscribe their systems to
// these updates would be able to transparently receive kernel hot
// updates" — a distribution channel of update tarballs per kernel
// release, and a subscriber that brings a machine up to date.
//
// A channel is a directory holding a channel.json manifest, the update
// tarballs it names in application order, and a blobs/ directory of
// binary deltas between adjacent tarballs. Publishing builds each update
// against the accumulated previously-patched source (the section 5.4
// requirement), so subscribers apply them strictly in order; a machine's
// position in the channel is simply how many updates it has applied.
//
// The channel ships exactly what ksplice-apply consumes: update
// tarballs. A subscriber's kernel is already running, so nothing of the
// base release travels. Each tarball after the first is also advertised
// as a delta against its predecessor, so a subscriber that holds the
// previous tarball fetches only the (much smaller) delta.
//
// Every manifest entry carries the sha256 digest and size of its
// tarball, every delta its own digest, and the manifest a digest of
// itself (plus, optionally, an offline ed25519 signature), so
// integrity — and, with a pinned key, authorship — is end to end:
// whatever transport delivered the bytes, Client.Sync verifies them
// before they are interpreted. All publisher writes go through
// internal/atomicfile, so a crashed publish never leaves a half-written
// manifest, tarball, or blob behind.
package channel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"gosplice/internal/atomicfile"
	"gosplice/internal/core"
	"gosplice/internal/diffutil"
	"gosplice/internal/srctree"
)

// Manifest is the channel's ordered update list.
type Manifest struct {
	// KernelVersion names the release the channel serves.
	KernelVersion string `json:"kernel_version"`
	// Updates lists tarball file names in application order.
	Updates []Entry `json:"updates"`
	// Deltas advertises binary deltas between the tarballs at adjacent
	// manifest positions: a subscriber already holding the tarball with
	// BaseSha256 reconstructs ResultSha256 from the (much smaller) delta
	// blob instead of fetching it whole.
	Deltas []DeltaEntry `json:"deltas,omitempty"`
	// PublicKey is the hex ed25519 public key of the signing publisher
	// (informational — subscribers verify against their own pinned key).
	PublicKey string `json:"public_key,omitempty"`
	// Signature is the hex ed25519 signature over the manifest's
	// canonical digest. Offline trust: the serving machine never holds
	// the signing key.
	Signature string `json:"signature,omitempty"`
	// Digest is the hex sha256 of the manifest's own canonical encoding
	// (this struct marshaled with Digest and Signature empty). It lets a
	// subscriber detect a truncated or tampered manifest wherever it
	// came from.
	Digest string `json:"digest,omitempty"`
}

// Entry is one published update.
type Entry struct {
	Name string `json:"name"`
	File string `json:"file"`
	// CVE is the advisory the update fixes (informational).
	CVE string `json:"cve,omitempty"`
	// PatchLines is the source patch length.
	PatchLines int `json:"patch_lines"`
	// CustomCode marks Table 1-style updates that carry hooks.
	CustomCode bool `json:"custom_code,omitempty"`
	// Sha256 is the hex digest of the tarball bytes; Size their length.
	// Client.Sync refuses to hand bytes that fail either check to Apply.
	Sha256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// DeltaEntry advertises one binary delta blob (diffutil.MakeDelta
// format, self-verifying) between two published tarballs.
type DeltaEntry struct {
	// BaseSha256 identifies the blob the delta applies against;
	// ResultSha256 the blob it reconstructs.
	BaseSha256   string `json:"base_sha256"`
	ResultSha256 string `json:"result_sha256"`
	// Sha256 addresses and verifies the delta blob itself; Size is its
	// length.
	Sha256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// DeltaFor returns the advertised delta reconstructing the blob with
// the given digest, or nil.
func (m *Manifest) DeltaFor(resultSha256 string) *DeltaEntry {
	for i := range m.Deltas {
		if m.Deltas[i].ResultSha256 == resultSha256 {
			return &m.Deltas[i]
		}
	}
	return nil
}

const (
	manifestName = "channel.json"
	blobsDirName = "blobs"
)

// Crash points on the publisher's writes (tarballs, delta blobs and the
// manifest) and on key files. They fire through the process-global hook.
var (
	cpPublishWrite = atomicfile.Point("publish.write")
	cpPublishKey   = atomicfile.Point("publish.key")
)

// computeDigest returns the manifest's canonical digest: the sha256 of
// its JSON encoding with the Digest and Signature fields cleared (the
// signature is over the digest, so it cannot be under it).
func (m *Manifest) computeDigest() (string, error) {
	c := *m
	c.Digest = ""
	c.Signature = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Verify checks the manifest's self-digest and that every entry pins
// its tarball with a sha256 and a positive size. Both are required: a
// manifest or entry without them would let a subscriber apply whatever
// bytes arrived.
func (m *Manifest) Verify() error {
	if m.Digest == "" {
		return errors.New("channel: manifest carries no digest")
	}
	for _, e := range m.Updates {
		if !validDigest(e.Sha256) || e.Size <= 0 {
			return fmt.Errorf("channel: manifest entry %q lacks a sha256 digest or a positive size", e.Name)
		}
	}
	want, err := m.computeDigest()
	if err != nil {
		return err
	}
	if m.Digest != want {
		return fmt.Errorf("channel: manifest digest %.12s… does not match contents (%.12s…)", m.Digest, want)
	}
	return nil
}

// DecodeManifest parses and verifies manifest bytes. A field this build
// does not know is refused by name: the self-digest is computed over the
// known fields only, so it would otherwise surface as a misleading
// digest mismatch. That covers the "prebuilt" and "artifacts" fields of
// channels published before the channel shipped tarballs only.
func DecodeManifest(b []byte) (*Manifest, error) {
	m := &Manifest{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("channel: manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("channel: manifest: trailing data after the JSON object")
	}
	// Marshal omits an empty delta list, so "deltas": [] must decode
	// like no list at all.
	if len(m.Deltas) == 0 {
		m.Deltas = nil
	}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m, nil
}

// Publisher accumulates a channel: each Publish builds the next update
// against the previously-patched source and writes it into the directory.
type Publisher struct {
	Dir string
	// SignKey, when set before the first Publish, signs every manifest
	// write with offline ed25519 (see sign.go). The serving machine
	// needs only the directory; the key never leaves the publisher.
	SignKey SignKey

	manifest Manifest
	tree     *srctree.Tree // the release's base plus every published patch
	prevTar  []byte        // the newest published tarball: the next delta base
}

// NewPublisher opens (or creates) a channel directory for the release
// whose base source is tree. Stray temp files from a crashed publish are
// swept away; the manifest only ever names fully written tarballs, so the
// channel resumes cleanly from whatever the last atomic manifest rename
// recorded. Only a missing manifest starts a new channel: one that
// cannot be read or verified is an error, never silently replaced,
// because restarting at position 0 would strand every subscriber
// already past it.
func NewPublisher(dir string, tree *srctree.Tree) (*Publisher, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Crash resume: remove half-written temp files an interrupted
	// publish left behind. They were never renamed into place, so
	// nothing references them.
	atomicfile.SweepTemps(dir, 0)
	atomicfile.SweepTemps(filepath.Join(dir, blobsDirName), 0)
	p := &Publisher{
		Dir:      dir,
		manifest: Manifest{KernelVersion: tree.Version()},
		tree:     tree,
	}
	m, err := ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	// Resume an existing channel: replay its patches over the base tree,
	// keeping the newest tarball's bytes as the next delta base.
	if m.KernelVersion != tree.Version() {
		return nil, fmt.Errorf("channel: directory serves %q, tree is %q", m.KernelVersion, tree.Version())
	}
	p.manifest = *m
	for _, e := range m.Updates {
		b, u, err := loadUpdateBytes(dir, e)
		if err != nil {
			return nil, err
		}
		p.tree, err = p.tree.Patch(u.PatchText)
		if err != nil {
			return nil, fmt.Errorf("channel: replaying %s: %w", e.Name, err)
		}
		p.prevTar = b
	}
	return p, nil
}

// writeBlob stores payload content-addressed under blobs/. Blobs are
// immutable by construction, so an existing file short-circuits.
func (p *Publisher) writeBlob(payload []byte) (digest string, size int64, err error) {
	digest, size = core.TarDigest(payload)
	dir := filepath.Join(p.Dir, blobsDirName)
	path := filepath.Join(dir, digest)
	if _, err := os.Stat(path); err == nil {
		return digest, size, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	if err := writePublished(path, payload); err != nil {
		return "", 0, err
	}
	return digest, size, nil
}

// publishDelta encodes and stores base→result as a delta blob and
// advertises it, unless the delta does not actually save bytes.
func (p *Publisher) publishDelta(base, result []byte) error {
	if len(base) == 0 {
		return nil
	}
	d := diffutil.MakeDelta(base, result)
	if len(d) >= len(result) {
		return nil
	}
	digest, size, err := p.writeBlob(d)
	if err != nil {
		return err
	}
	baseDigest, _ := core.TarDigest(base)
	resultDigest, _ := core.TarDigest(result)
	p.manifest.Deltas = append(p.manifest.Deltas, DeltaEntry{
		BaseSha256: baseDigest, ResultSha256: resultDigest,
		Sha256: digest, Size: size,
	})
	return nil
}

// Publish converts a source patch into the channel's next update. The
// tarball and its delta against the previous position's tarball are
// written atomically before the manifest names them, so a crash at any
// point leaves the channel consistent: either the update is fully
// published or it is absent.
func (p *Publisher) Publish(name, cve, patchText string) (*core.Update, error) {
	// CreateUpdateTree builds through the artifact store, and its post
	// tree is the channel's next tree: the next publish's pre build is
	// this one's post build, and no second copy of the tree is derived.
	u, next, err := core.CreateUpdateTree(p.tree, patchText, core.CreateOptions{Name: name})
	if err != nil {
		return nil, err
	}
	b, digest, size, err := u.EncodeTar()
	if err != nil {
		return nil, err
	}
	file := u.Name + ".tar"
	if err := writePublished(filepath.Join(p.Dir, file), b); err != nil {
		return nil, err
	}
	if err := p.publishDelta(p.prevTar, b); err != nil {
		return nil, err
	}
	p.tree = next
	p.prevTar = b
	p.manifest.Updates = append(p.manifest.Updates, Entry{
		Name: u.Name, File: file, CVE: cve,
		PatchLines: u.PatchLines, CustomCode: u.HasHooks(),
		Sha256: digest, Size: size,
	})
	return u, p.writeManifest()
}

func (p *Publisher) writeManifest() error {
	if p.SignKey != nil {
		p.manifest.PublicKey = p.SignKey.PublicHex()
	}
	digest, err := p.manifest.computeDigest()
	if err != nil {
		return err
	}
	p.manifest.Digest = digest
	if p.SignKey != nil {
		p.manifest.Signature = p.SignKey.signDigest(digest)
	}
	b, err := json.MarshalIndent(&p.manifest, "", "  ")
	if err != nil {
		return err
	}
	return writePublished(filepath.Join(p.Dir, manifestName), append(b, '\n'))
}

// writePublished durably writes one file of the channel directory.
func writePublished(path string, b []byte) error {
	return atomicfile.Write(path, b, 0o644, nil, cpPublishWrite)
}

// ReadManifest loads and verifies a channel directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("channel: %s: %w", dir, err)
	}
	return m, nil
}

// loadUpdateBytes reads one tarball from a channel directory, verified
// against its manifest entry, returning both the raw bytes and the
// parsed update.
func loadUpdateBytes(dir string, e Entry) ([]byte, *core.Update, error) {
	b, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return nil, nil, err
	}
	u, err := core.ReadTarVerified(b, e.Sha256, e.Size)
	if err != nil {
		return nil, nil, fmt.Errorf("channel: %s: %w", e.Name, err)
	}
	return b, u, nil
}
