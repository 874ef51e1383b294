package channel

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// TestPublishAndSubscribe builds a channel from one release's corpus
// fixes and subscribes a freshly booted machine to it — the paper's
// section 8 scenario: all the release's security reboots eliminated by
// one subscription.
func TestPublishAndSubscribe(t *testing.T) {
	version := cvedb.Versions[2]
	dir := t.TempDir()
	tree := cvedb.Tree(version)

	pub, err := NewPublisher(dir, tree)
	if err != nil {
		t.Fatal(err)
	}
	cves := cvedb.ForVersion(version)
	if len(cves) < 10 {
		t.Fatalf("version has only %d CVEs", len(cves))
	}
	for _, c := range cves {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatalf("publish %s: %v", c.ID, err)
		}
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Updates) != len(cves) {
		t.Fatalf("manifest has %d updates", len(m.Updates))
	}

	// Subscribe a vulnerable machine: every probe flips.
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(k)
	applied, err := SyncOnce(context.Background(), NewDirTransport(dir), mgr, 0, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(cves) {
		t.Fatalf("applied %d of %d", len(applied), len(cves))
	}
	for _, c := range cves {
		got := runProbe(t, k, c)
		if got != c.Probe.FixedResult {
			t.Errorf("%s: probe = %d, want %d", c.ID, got, c.Probe.FixedResult)
		}
	}
	// Health check after the whole batch.
	if bad, err := k.Call("stress_main", 100); err != nil || bad != 0 {
		t.Errorf("stress after subscription: %d, %v", bad, err)
	}

	// A machine already at position N gets nothing new.
	more, err := SyncOnce(context.Background(), NewDirTransport(dir), mgr, len(cves), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 0 {
		t.Errorf("re-subscription applied %d updates", len(more))
	}
}

func runProbe(t *testing.T, k *kernel.Kernel, c *cvedb.CVE) int64 {
	t.Helper()
	var addr uint32
	for _, s := range k.Syms.Lookup(c.Probe.Entry) {
		if s.Func && s.Module == "" {
			addr = s.Addr
		}
	}
	if addr == 0 {
		t.Fatalf("%s: no probe symbol", c.ID)
	}
	task, err := k.SpawnAt("probe", addr, c.Probe.UID, c.Probe.Args...)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(task, 50_000_000); err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	code := task.ExitCode
	k.ReapExited()
	return code
}

// TestPublisherResume reopens a channel directory and continues where it
// left off, with the accumulated previously-patched source.
func TestPublisherResume(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	cves := cvedb.ForVersion(version)

	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("u0", cves[0].ID, cves[0].Patch()); err != nil {
		t.Fatal(err)
	}

	// A second publisher process resumes the same directory.
	pub2, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub2.Publish("u1", cves[1].ID, cves[1].Patch()); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Updates) != 2 || m.Updates[0].Name != "u0" || m.Updates[1].Name != "u1" {
		t.Errorf("manifest: %+v", m.Updates)
	}

	// Wrong-release resume is rejected.
	if _, err := NewPublisher(dir, cvedb.Tree(cvedb.Versions[1])); err == nil {
		t.Error("cross-release resume accepted")
	}
}

// TestNewPublisherRefusesBadManifest: a channel.json that does not parse
// or does not match its self-digest is an error, never a fresh channel —
// restarting at position 0 would strand every subscriber past it. The
// manifest on disk is left exactly as it was.
func TestNewPublisherRefusesBadManifest(t *testing.T) {
	version := cvedb.Versions[0]
	c := cvedb.ForVersion(version)[0]
	good := t.TempDir()
	pub, err := NewPublisher(good, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("u0", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(good, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(b, []byte(`"`+c.ID+`"`), []byte(`"CVE-0000-0000"`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("tampering changed nothing")
	}
	for name, bad := range map[string][]byte{
		"truncated":       b[:len(b)/2],
		"digest-mismatch": tampered,
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, manifestName)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewPublisher(dir, cvedb.Tree(version)); err == nil {
			t.Errorf("%s: NewPublisher accepted a bad manifest as a fresh channel", name)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
			t.Errorf("%s: the bad manifest was overwritten", name)
		}
	}
}

// TestDecodeManifestRefusesLegacyFields: a manifest from a build that
// still shipped prebuilt build artifacts is refused with an error that
// names the field — by DecodeManifest and by a publisher resuming the
// directory — rather than a misleading digest mismatch.
func TestDecodeManifestRefusesLegacyFields(t *testing.T) {
	version := cvedb.Versions[0]
	for field, doc := range map[string]string{
		"prebuilt": `{"kernel_version":"` + version + `","updates":[],` +
			`"prebuilt":[{"kind":"unit","store_key":"k","sha256":"00","size":1}],"digest":"00"}`,
		"artifacts": `{"kernel_version":"` + version + `","updates":[{"name":"u0","file":"u0.tar",` +
			`"patch_lines":1,"sha256":"00","size":1,"artifacts":[]}],"digest":"00"}`,
	} {
		_, err := DecodeManifest([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) || strings.Contains(err.Error(), "digest") {
			t.Errorf("%s: DecodeManifest error %v, want one naming the field", field, err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewPublisher(dir, cvedb.Tree(version)); err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("%s: NewPublisher error %v, want one naming the field", field, err)
		}
	}
}

// TestManifestRequiresDigests: every manifest carries its self-digest
// and pins each entry with a 64-hex sha256 and a positive size. Anyone
// between publisher and subscriber can strip them, so DecodeManifest
// refuses a manifest without them, and a subscriber syncing from one
// applies nothing.
func TestManifestRequiresDigests(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	c := cvedb.ForVersion(version)[0]
	if _, err := pub.Publish("u0", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}
	good, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// variant edits a copy of the published manifest's first entry and,
	// when redigest is set, gives it a valid self-digest, so only the
	// entry check can refuse it.
	variant := func(edit func(e *Entry), redigest bool) []byte {
		m := *good
		m.Updates = append([]Entry(nil), good.Updates...)
		edit(&m.Updates[0])
		m.Digest = ""
		if redigest {
			d, err := m.computeDigest()
			if err != nil {
				t.Fatal(err)
			}
			m.Digest = d
		}
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stripped := variant(func(e *Entry) { e.Sha256, e.Size = "", 0 }, false)
	for name, b := range map[string][]byte{
		"no digest, no entry hash": stripped,
		"no digest":                variant(func(*Entry) {}, false),
		"empty entry sha256":       variant(func(e *Entry) { e.Sha256 = "" }, true),
		"short entry sha256":       variant(func(e *Entry) { e.Sha256 = e.Sha256[:32] }, true),
		"non-hex entry sha256":     variant(func(e *Entry) { e.Sha256 = strings.Repeat("zz", 32) }, true),
		"zero entry size":          variant(func(e *Entry) { e.Size = 0 }, true),
		"negative entry size":      variant(func(e *Entry) { e.Size = -1 }, true),
		"empty sha256 and no size": variant(func(e *Entry) { e.Sha256, e.Size = "", 0 }, true),
	} {
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("%s: DecodeManifest accepted it", name)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, manifestName), stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := SyncOnce(context.Background(), NewDirTransport(dir), core.NewManager(k), 0, ClientConfig{})
	if err == nil || len(applied) != 0 {
		t.Fatalf("sync from a stripped manifest: applied %d, err %v; want a refusal", len(applied), err)
	}
}

func TestSubscribeErrors(t *testing.T) {
	version := cvedb.Versions[0]
	dir := t.TempDir()
	pub, err := NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	c := cvedb.ForVersion(version)[0]
	if _, err := pub.Publish("u0", c.ID, c.Patch()); err != nil {
		t.Fatal(err)
	}

	// Wrong release.
	k, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(cvedb.Versions[1])})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncOnce(context.Background(), NewDirTransport(dir), core.NewManager(k), 0, ClientConfig{}); err == nil {
		t.Error("cross-release subscription accepted")
	}
	// Impossible position.
	k2, err := kernel.Boot(kernel.Config{Tree: cvedb.Tree(version)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SyncOnce(context.Background(), NewDirTransport(dir), core.NewManager(k2), 5, ClientConfig{}); err == nil {
		t.Error("position beyond channel accepted")
	}
	// Missing channel.
	if _, err := SyncOnce(context.Background(), NewDirTransport(t.TempDir()), core.NewManager(k2), 0, ClientConfig{}); err == nil {
		t.Error("empty dir subscribed")
	}
}
