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
