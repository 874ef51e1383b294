package channel

import (
	"context"

	"gosplice/internal/core"
)

// RecomputeDigestForTest lets external tests play the attacker who
// fixes up a tampered manifest's self-digest, proving the signature
// still catches it.
func RecomputeDigestForTest(m *Manifest) (string, error) {
	return m.computeDigest()
}

// SyncOnce runs one Sync pass for mgr, bound at position applied,
// through a throwaway Client over t configured by cfg — how tests drive
// a subscriber that keeps nothing between passes.
func SyncOnce(ctx context.Context, t Transport, mgr *core.Manager, applied int, cfg ClientConfig) ([]*core.Update, error) {
	cfg.Transport = t
	cl, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.Bind(mgr, applied)
	return cl.Sync(ctx)
}

// DurableLenForTest returns the journal's length at its last fsync —
// all of it a power loss is sure to leave.
func (s *ClientState) DurableLenForTest() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

// BlobSweepsForTest returns how many sweeps the client's directory blob
// cache has run: its store's gosplice_store_gc_sweeps_total.
func (c *Client) BlobSweepsForTest() uint64 {
	return c.blobs.(*DirBlobCache).s.Metrics().Counter("gosplice_store_gc_sweeps_total").Value()
}
