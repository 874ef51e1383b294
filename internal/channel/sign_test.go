// Signed-manifest tests: the `make check` signed-channel smoke (-run
// SignedChannel) plus the refusal matrix — unsigned, wrong key, and
// post-signing tampering are all rejected before any update is fetched.
package channel_test

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/cvedb"
	"gosplice/internal/diffutil"
	"gosplice/internal/srctree"
)

// publishSigned publishes the first n fixes of version into a signed
// channel, returning the directory and the key pair.
func publishSigned(t *testing.T, version string, n int) (string, channel.SignKey, channel.VerifyKey) {
	t.Helper()
	key, err := channel.GenerateSignKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
	if err != nil {
		t.Fatal(err)
	}
	pub.SignKey = key
	for _, c := range cvedb.ForVersion(version)[:n] {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			t.Fatal(err)
		}
	}
	keyDir := t.TempDir()
	if err := channel.WriteSignKey(keyDir+"/pub.key", key); err != nil {
		t.Fatal(err)
	}
	vk, err := channel.LoadVerifyKey(keyDir + "/pub.key.pub")
	if err != nil {
		t.Fatal(err)
	}
	return dir, key, vk
}

// TestSignedChannelSubscribe: the end-to-end smoke — a key pair round
// trips through key files, the published manifest verifies, and a
// subscriber pinning the public key applies the channel.
func TestSignedChannelSubscribe(t *testing.T) {
	version := cvedb.Versions[0]
	dir, key, vk := publishSigned(t, version, 2)
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Signature == "" || m.PublicKey != key.PublicHex() {
		t.Fatal("published manifest carries no signature or the wrong public key")
	}
	if err := m.VerifySignature(vk); err != nil {
		t.Fatal(err)
	}
	_, mgr := bootRelease(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, 0, channel.ClientConfig{VerifyKey: vk})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("signed subscribe applied %d of 2", len(applied))
	}
}

// TestSubscribeRefusesUnsignedWhenPinned: pinning a key makes unsigned
// manifests a hard error — not a PositionError — and nothing applies.
func TestSubscribeRefusesUnsignedWhenPinned(t *testing.T) {
	version := cvedb.Versions[0]
	dir, _ := publishRelease(t, version) // unsigned
	_, vk := mustKeyPair(t)
	_, mgr := bootRelease(t, version)
	applied, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, 0, channel.ClientConfig{VerifyKey: vk})
	if err == nil || !strings.Contains(err.Error(), "unsigned") {
		t.Fatalf("unsigned manifest accepted under a pinned key: %v", err)
	}
	if !errors.Is(err, channel.ErrManifestRefused) {
		t.Errorf("refusal %v does not wrap ErrManifestRefused", err)
	}
	if _, ok := channel.IsPosition(err); ok {
		t.Fatal("refusal surfaced as a graceful PositionError; it must be hard")
	}
	if len(applied) != 0 || len(mgr.Applied()) != 0 {
		t.Fatal("updates applied from a refused manifest")
	}
}

// TestSubscribeRefusesWrongKey: a manifest signed by someone else is
// refused even though its signature is internally valid.
func TestSubscribeRefusesWrongKey(t *testing.T) {
	version := cvedb.Versions[1]
	dir, _, _ := publishSigned(t, version, 1)
	_, otherPub := mustKeyPair(t)
	_, mgr := bootRelease(t, version)
	_, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, 0, channel.ClientConfig{VerifyKey: otherPub})
	if err == nil {
		t.Fatal("manifest signed by a different key was accepted")
	}
	if !errors.Is(err, channel.ErrManifestRefused) {
		t.Errorf("refusal %v does not wrap ErrManifestRefused", err)
	}
}

// TestSignatureTamperDetected: content changed after signing fails the
// digest check, and a re-digested manifest fails the signature check —
// there is no way to alter a signed manifest undetected.
func TestSignatureTamperDetected(t *testing.T) {
	version := cvedb.Versions[2]
	dir, _, vk := publishSigned(t, version, 1)
	m, err := channel.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Updates[0].Sha256 = strings.Repeat("ab", 32) // point at attacker bytes
	if err := m.Verify(); err == nil {
		t.Fatal("tampered manifest passes its digest check")
	}
	// An attacker who also fixes up the digest still fails the signature.
	d, err := channel.RecomputeDigestForTest(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Digest = d
	if err := m.Verify(); err != nil {
		t.Fatalf("re-digested manifest should self-verify: %v", err)
	}
	if err := m.VerifySignature(vk); err == nil {
		t.Fatal("re-digested tampered manifest passes the signature check")
	}
}

// mustKeyPair generates a throwaway key pair.
func mustKeyPair(t *testing.T) (channel.SignKey, channel.VerifyKey) {
	t.Helper()
	k, err := channel.GenerateSignKey()
	if err != nil {
		t.Fatal(err)
	}
	vk, err := channel.ParseVerifyKeyHex(k.PublicHex())
	if err != nil {
		t.Fatal(err)
	}
	return k, vk
}

// FuzzDecodeManifest: DecodeManifest is the first thing a subscriber
// runs on bytes from the network. For any input it must not panic; a
// manifest it accepts must come back unchanged from a json.Marshal
// round trip; and what it allocates must stay linear in the input. The
// seeds are the manifests of a two-update channel published unsigned
// and signed. Its tree is one tiny unit, so every fuzz worker publishes
// the seeds in milliseconds.
func FuzzDecodeManifest(f *testing.F) {
	const src = "int f(void) { return 1; }\n"
	tree := srctree.New("fuzz-1.0", map[string]string{"f.mc": src})
	for _, key := range []channel.SignKey{nil, channel.SignKey(ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)))} {
		dir := f.TempDir()
		pub, err := channel.NewPublisher(dir, tree)
		if err != nil {
			f.Fatal(err)
		}
		pub.SignKey = key
		prev := src
		for i, next := range []string{"int f(void) { return 2; }\n", "int f(void) { return 3; }\n"} {
			if _, err := pub.Publish(fmt.Sprintf("u%d", i), "", diffutil.DiffFiles("f.mc", prev, next)); err != nil {
				f.Fatal(err)
			}
			prev = next
		}
		b, err := os.ReadFile(filepath.Join(dir, "channel.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	// Heap allocation is read through runtime/metrics, which, unlike
	// runtime.ReadMemStats, does not stop the world on every input.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		before := allocated()
		m, err := channel.DecodeManifest(b)
		// A decoded entry is ~90 bytes from as few as 3 input bytes ("{},")
		// and slices grow by half, hence the factor; the constant covers
		// the decoder's fixed buffers, the digest, and the span-sized
		// granularity of the runtime's allocation count.
		if alloc, limit := allocated()-before, 256*uint64(len(b))+1<<20; alloc > limit {
			t.Errorf("decoding %d bytes allocated %d, want at most %d", len(b), alloc, limit)
		}
		if err != nil {
			return
		}
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := channel.DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest refused: %v\n%s", err, re)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest changed across a json.Marshal round trip:\n%+v\n%+v", m, m2)
		}
	})
}
