package channel

import (
	"context"
	"errors"
	"fmt"

	"gosplice/internal/core"
	"gosplice/internal/diffutil"
	"gosplice/internal/telemetry"
)

// SubscribeOptions tunes Subscribe. The zero value is usable.
type SubscribeOptions struct {
	// Apply is passed through to core.Manager.Apply for every update, so
	// a busy machine can raise MaxAttempts or stretch RetryDelay instead
	// of inheriting hard-coded defaults.
	Apply core.ApplyOptions
	// FetchRetries bounds how many times one entry is re-fetched after
	// an integrity failure — a digest or size mismatch, or a tarball
	// that fails to parse (default 2, i.e. up to 3 fetches). Transport
	// implementations retry transport-level failures internally; this
	// guards the end-to-end check above them.
	FetchRetries int
	// OnApplying, when non-nil, is called after an entry's bytes are
	// verified and immediately before it applies, with the position the
	// machine reaches once it does — the write-ahead intent hook, where
	// a client journals its begin record. An error stops the subscribe
	// at the current position.
	OnApplying func(m *Manifest, e Entry, pos int) error
	// OnCommitted, when non-nil, is called immediately after an entry
	// applies and before it is counted — the write-ahead commit hook.
	// An error stops the subscribe, but the update is already applied
	// and is included in the reported position.
	OnCommitted func(e Entry, pos int) error
	// OnApplied, when non-nil, is called after each update applies with
	// its manifest entry and verified tarball bytes — the hook a
	// subscriber uses to persist local copies for later replay.
	OnApplied func(e Entry, b []byte) error
	// VerifyKey, when non-nil, pins the channel's publisher: the
	// manifest must carry a valid ed25519 signature by this key or the
	// subscribe is refused outright — a hard error, not a PositionError,
	// because an unauthenticated manifest is an attack, not an outage.
	VerifyKey VerifyKey
	// Blobs, when non-nil, is the machine's persistent blob cache (see
	// DirBlobCache); it is what lets binary deltas chain across separate
	// Subscribe calls. nil uses a cache that lives for this call only.
	Blobs BlobCache
	// Registry, when non-nil, receives this subscribe's client metrics
	// (applied, degraded, refetches, delta fallbacks, wire bytes) in
	// addition to the process-wide registry — how one channel.Client
	// among hundreds attributes outcomes to itself. Pass the same
	// registry to HTTPOptions so transport retries land beside them.
	Registry *telemetry.Registry
}

// PositionError reports a subscription that stopped before the channel
// head — the channel became unreachable, an entry stayed corrupt through
// every refetch, an apply failed, or the caller's context was cancelled.
// The machine remains consistent: exactly Position updates are applied
// (the original position plus everything this call managed), no update is
// partially applied, and a later Subscribe from Position resumes where
// this one stopped.
type PositionError struct {
	// Position is the machine's channel position after the partial
	// subscribe.
	Position int
	// Entry names the update that could not be fetched or applied
	// ("" when the manifest itself was unavailable).
	Entry string
	Err   error
}

func (e *PositionError) Error() string {
	what := "manifest"
	if e.Entry != "" {
		what = e.Entry
	}
	return fmt.Sprintf("channel: stopped at position %d (%s): %v", e.Position, what, e.Err)
}

func (e *PositionError) Unwrap() error { return e.Err }

// Subscribe applies every channel update the machine does not yet have,
// in order, through mgr. applied is how many of the channel's updates the
// machine already runs (its channel position). It returns the updates
// applied this call.
//
// Every tarball is verified against its manifest digest and size before
// it is parsed; corrupt bytes are re-fetched up to opts.FetchRetries
// times and are never handed to Apply. If the channel becomes unreachable
// or an entry stays bad, Subscribe degrades gracefully: the machine keeps
// running at the position it reached, and the returned *PositionError
// reports how far that is.
//
// Cancelling ctx stops the subscribe at the next update boundary (or
// mid-backoff inside the transport) and reports the position reached as a
// PositionError wrapping ctx's error — cancellation is an outage, not an
// inconsistency.
func Subscribe(ctx context.Context, t Transport, mgr *core.Manager, applied int, opts SubscribeOptions) ([]*core.Update, error) {
	if opts.FetchRetries <= 0 {
		opts.FetchRetries = 2
	}
	if opts.Blobs == nil {
		opts.Blobs = NewMemBlobCache()
	}
	ms := registryClientMetrics(opts.Registry)
	m, err := t.Manifest(ctx)
	if err != nil {
		ms.degraded.Inc()
		return nil, &PositionError{Position: applied, Err: err}
	}
	if opts.VerifyKey != nil {
		if err := m.VerifySignature(opts.VerifyKey); err != nil {
			return nil, fmt.Errorf("channel: refusing manifest: %w", err)
		}
	}
	if m.KernelVersion != mgr.K.Version {
		return nil, fmt.Errorf("channel: serves %q, machine runs %q", m.KernelVersion, mgr.K.Version)
	}
	if applied > len(m.Updates) {
		return nil, fmt.Errorf("channel: machine claims %d updates, channel has %d", applied, len(m.Updates))
	}
	var out []*core.Update
	pos := func() int { return applied + len(out) }
	// When the caller's context carries a span (Client.Sync's root),
	// each entry gets fetch and apply children under it — and the fetch
	// child's traceparent rides the transport's requests, so the
	// server's handler spans nest inside it across the process boundary.
	sp := telemetry.SpanFromContext(ctx)
	for _, e := range m.Updates[applied:] {
		if err := ctx.Err(); err != nil {
			ms.degraded.Inc()
			return out, &PositionError{Position: pos(), Entry: e.Name, Err: err}
		}
		fsp := sp.Child("fetch", telemetry.A("entry", e.Name))
		u, b, err := fetchVerified(telemetry.ContextWithSpan(ctx, fsp), t, m, e, opts.Blobs, opts.FetchRetries, ms)
		fsp.End()
		if err != nil {
			ms.degraded.Inc()
			return out, &PositionError{Position: pos(), Entry: e.Name, Err: err}
		}
		if opts.OnApplying != nil {
			if err := opts.OnApplying(m, e, pos()+1); err != nil {
				ms.degraded.Inc()
				return out, &PositionError{Position: pos(), Entry: e.Name, Err: fmt.Errorf("on-applying hook: %w", err)}
			}
		}
		asp := sp.Child("apply", telemetry.A("entry", e.Name))
		if _, err := mgr.Apply(u, opts.Apply); err != nil {
			asp.End()
			ms.degraded.Inc()
			return out, &PositionError{Position: pos(), Entry: e.Name, Err: fmt.Errorf("applying: %w", err)}
		}
		asp.End()
		// Commit before the apply is counted, so a journal that says
		// "committed" never claims an update the metrics have not seen.
		var commitErr error
		if opts.OnCommitted != nil {
			commitErr = opts.OnCommitted(e, pos()+1)
		}
		ms.applied.Inc()
		out = append(out, u)
		ms.position.Set(int64(pos()))
		if commitErr != nil {
			ms.degraded.Inc()
			return out, &PositionError{Position: pos(), Entry: e.Name, Err: fmt.Errorf("on-committed hook: %w", commitErr)}
		}
		if opts.OnApplied != nil {
			if err := opts.OnApplied(e, b); err != nil {
				ms.degraded.Inc()
				return out, &PositionError{Position: pos(), Entry: e.Name, Err: fmt.Errorf("on-applied hook: %w", err)}
			}
		}
	}
	return out, nil
}

// fetchVerified fetches one entry and verifies it end to end, re-fetching
// on integrity failures. Transport errors are not retried here (the
// transport already did); they surface immediately.
//
// When the manifest advertises a delta onto this tarball and the blob
// cache holds its base, the bytes are reconstructed from the delta
// first; any delta failure falls through to the full fetch below, so
// deltas can only save bandwidth, never lose an update. Either way the
// verified tarball is cached as the next entry's delta base.
func fetchVerified(ctx context.Context, t Transport, m *Manifest, e Entry, blobs BlobCache, retries int, ms *clientMetrics) (*core.Update, []byte, error) {
	if e.Sha256 != "" {
		// Blob cache first: a machine that already verified these exact
		// bytes (an earlier subscribe killed before its position
		// committed, a rollback being re-applied) re-applies from local
		// disk without touching the wire. Get re-verifies the digest, so
		// a rotted blob falls through to the fetch below.
		if b, ok := blobs.Get(e.Sha256); ok {
			if u, err := decodeVerified(b, e); err == nil {
				return u, b, nil
			}
		}
		if b, ok := fetchViaDelta(ctx, t, m, e.Sha256, blobs, ms); ok {
			if u, err := decodeVerified(b, e); err == nil {
				return u, b, nil
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		b, err := t.Fetch(ctx, e)
		if err != nil {
			return nil, nil, err
		}
		ms.bytesOverWire.Add(uint64(len(b)))
		u, err := decodeVerified(b, e)
		if err == nil {
			if e.Sha256 != "" {
				blobs.Put(e.Sha256, b)
			}
			return u, b, nil
		}
		// Digest mismatch or unparseable bytes: the transport delivered
		// garbage. Fetch again; never interpret or apply what we have.
		ms.refetches.Inc()
		lastErr = err
	}
	return nil, nil, fmt.Errorf("corrupt after %d fetches: %w", retries+1, lastErr)
}

// fetchViaDelta reconstructs the blob with the given digest from an
// advertised binary delta, when one exists and its base is in the local
// cache. Every failure past "a delta was advertised" counts a full-fetch
// fallback; the delta format is self-verifying (base and result digests
// are in the header), so corrupt deltas and wrong bases are caught
// before any reconstructed byte is trusted.
func fetchViaDelta(ctx context.Context, t Transport, m *Manifest, digest string, blobs BlobCache, ms *clientMetrics) ([]byte, bool) {
	d := m.DeltaFor(digest)
	if d == nil {
		return nil, false
	}
	base, ok := blobs.Get(d.BaseSha256)
	if !ok {
		ms.deltaFallback.Inc()
		return nil, false
	}
	db, err := t.FetchBlob(ctx, d.Sha256, d.Size)
	if err != nil {
		ms.deltaFallback.Inc()
		return nil, false
	}
	ms.bytesOverWire.Add(uint64(len(db)))
	if blobDigest(db) != d.Sha256 {
		ms.deltaFallback.Inc()
		return nil, false
	}
	b, err := diffutil.ApplyDelta(base, db)
	if err != nil {
		ms.deltaFallback.Inc()
		return nil, false
	}
	if blobDigest(b) != digest {
		// Publisher advertised a delta whose result is not the blob —
		// caught here, fall back to whole-blob fetch.
		ms.deltaFallback.Inc()
		return nil, false
	}
	ms.deltaApplied.Inc()
	blobs.Put(digest, b)
	return b, true
}

// decodeVerified turns fetched bytes into an update, enforcing the
// manifest's digest and size. Entries published before digests existed
// (empty Sha256) parse unverified.
func decodeVerified(b []byte, e Entry) (*core.Update, error) {
	if e.Sha256 == "" {
		return core.ReadTarVerified(b, blobDigest(b), int64(len(b)))
	}
	return core.ReadTarVerified(b, e.Sha256, e.Size)
}

// blobDigest is the digest b would be advertised under.
func blobDigest(b []byte) string {
	d, _ := core.TarDigest(b)
	return d
}

// SubscribeDir is Subscribe over a local channel directory.
func SubscribeDir(dir string, mgr *core.Manager, applied int, opts SubscribeOptions) ([]*core.Update, error) {
	return Subscribe(context.Background(), NewDirTransport(dir), mgr, applied, opts)
}

// IsPosition reports whether err is a graceful partial-subscribe stop and
// returns it when so.
func IsPosition(err error) (*PositionError, bool) {
	var pe *PositionError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
