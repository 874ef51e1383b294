// Signed-manifest tests: the `make check` signed-channel smoke (-run
// SignedChannel) plus the refusal matrix — unsigned, wrong key, and
// post-signing tampering are all rejected before any update is fetched.
package channel_test

import (
	"context"
	"strings"
	"testing"

	"gosplice/internal/channel"
	"gosplice/internal/cvedb"
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
	if _, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, 0, channel.ClientConfig{VerifyKey: otherPub}); err == nil {
		t.Fatal("manifest signed by a different key was accepted")
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
