package channel

// Client is the subscriber stack rolled into one reusable object: a
// transport, a persistent (or ephemeral) blob cache, a per-instance
// telemetry registry, and the machine's channel position, behind a
// context-cancellable Sync. cmd/ksplice-channel's subscribe mode is one
// Client; the fleet orchestrator is hundreds of them in one process,
// each with its own registry (pushed upstream as fleet reports) and its
// own fault-injection wrapping.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/diffutil"
	"gosplice/internal/telemetry"
)

// ClientConfig configures a Client. Transport is required; everything
// else has a usable zero value.
type ClientConfig struct {
	// Name identifies the client in fleet reports and errors (default
	// "client").
	Name string
	// Transport reaches the channel. The client wraps it (WrapTransport)
	// but does not own it.
	Transport Transport
	// WrapTransport, when non-nil, interposes on the transport — the hook
	// a fleet plugs a faultinject.Plan into (the faultinject package
	// depends on this one, so the plan arrives as a closure).
	WrapTransport func(Transport) Transport
	// StateDir, when non-empty, roots the client's persistent state: its
	// blob cache lives at StateDir/blob-cache and its write-ahead apply
	// journal at StateDir/apply-journal.jsonl. Empty means fully
	// ephemeral (an in-memory blob cache, no journal).
	StateDir string
	// Crash, when non-nil, receives every crash point on this client's
	// persistence paths (journal appends and compactions, blob-cache
	// writes) — the hook a fault plan uses to schedule a simulated
	// process death. Nil falls back to the process-global hook.
	Crash crashpoint.Hook
	// Blobs overrides the blob cache outright (StateDir then does not
	// create one). It is what lets binary deltas chain across Syncs.
	Blobs BlobCache
	// Registry, when non-nil, is the client's metric registry; nil
	// creates a private one. A registry from telemetry.NewRegistry rolls
	// up into the process-wide one, so every increment also lands there
	// and one /metrics stays coherent.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records this client's spans (Sync roots,
	// fetch/apply children); nil uses the process-wide tracer. A fleet
	// gives each member its own tracer so its Pusher ships exactly that
	// member's spans upstream.
	Tracer *telemetry.Tracer
	// VerifyKey, when non-nil, pins the channel's publisher: the
	// manifest must carry a valid ed25519 signature by this key or it is
	// refused outright — a hard error, not a PositionError, because an
	// unauthenticated manifest is an attack, not an outage.
	VerifyKey VerifyKey
	// OnApplied, when non-nil, is called after each update applies and
	// its journal record commits, with its manifest entry and verified
	// tarball bytes — the hook a subscriber uses to persist local copies
	// for later replay. An error stops the Sync; the update stays applied
	// and counted in the position. It runs inside the Sync's pass, so it
	// must not call the client's Sync, RestoreMachine or Rollback.
	OnApplied func(e Entry, b []byte) error
}

// maxRefetches bounds how many times one entry is re-fetched after an
// integrity failure — a digest or size mismatch, or a tarball that fails
// to parse — so an entry gets at most 3 fetches. Transport
// implementations retry transport-level failures internally; this
// guards the end-to-end check above them.
const maxRefetches = 2

// Client is one subscriber machine's channel stack. Safe for concurrent
// use: Sync, RestoreMachine and Rollback each hold the client for their
// whole pass, so two of them never act on one machine at once.
type Client struct {
	cfg      ClientConfig
	t        Transport
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	ms       *clientMetrics
	blobs    BlobCache
	state    *ClientState
	recovery Recovery

	// run is held for a whole Sync, RestoreMachine or Rollback pass; mu
	// guards the fields below and is only ever held briefly.
	run     sync.Mutex
	mu      sync.Mutex
	mgr     *core.Manager
	base    int // channel position when the manager was bound; Rollback's floor
	pos     int
	closed  bool
	cancels map[*context.CancelFunc]struct{}
}

// NewClient builds a client. The machine itself (its kernel and update
// manager) attaches later via Bind — constructing the client is cheap
// and never boots anything.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("channel: client needs a transport")
	}
	if cfg.Name == "" {
		cfg.Name = "client"
	}
	c := &Client{
		cfg:     cfg,
		t:       cfg.Transport,
		cancels: map[*context.CancelFunc]struct{}{},
	}
	if cfg.WrapTransport != nil {
		c.t = cfg.WrapTransport(c.t)
	}
	c.reg = cfg.Registry
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.tracer = cfg.Tracer
	if c.tracer == nil {
		c.tracer = telemetry.DefaultTracer()
	}
	c.ms = newClientMetrics(c.reg)
	switch {
	case cfg.Blobs != nil:
		c.blobs = cfg.Blobs
	case cfg.StateDir != "":
		bc, err := NewDirBlobCache(filepath.Join(cfg.StateDir, "blob-cache"))
		if err != nil {
			return nil, fmt.Errorf("channel: client blob cache: %w", err)
		}
		bc.SetCrashHook(cfg.Crash)
		c.blobs = bc
	default:
		c.blobs = NewMemBlobCache()
	}
	if cfg.StateDir != "" {
		st, rec, err := OpenClientState(cfg.StateDir, cfg.Crash)
		if err != nil {
			return nil, fmt.Errorf("channel: client state: %w", err)
		}
		c.state, c.recovery = st, rec
		if rec.TornRecords > 0 {
			c.ms.tornDetected.Add(uint64(rec.TornRecords))
		}
		if rec.Corrupt {
			c.ms.tornDetected.Inc()
		}
	}
	return c, nil
}

// Recovery reports what the journal recovery pass found when the
// client opened its state dir: the committed position on disk, any
// mid-flight apply, and whether torn or corrupt state was degraded.
// The zero value for ephemeral (no StateDir) clients.
func (c *Client) Recovery() Recovery { return c.recovery }

// Name returns the client's fleet-report source id.
func (c *Client) Name() string { return c.cfg.Name }

// Registry returns the client's metric registry — what its Pusher
// snapshots and pushes upstream.
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// Tracer returns the client's span tracer.
func (c *Client) Tracer() *telemetry.Tracer { return c.tracer }

// Bind attaches the running machine: its update manager and its current
// channel position. position becomes the floor Rollback will not undo
// past — whatever was on the machine before this client managed it is
// not this client's to remove.
func (c *Client) Bind(mgr *core.Manager, position int) {
	c.mu.Lock()
	c.mgr = mgr
	c.base = position
	c.pos = position
	c.mu.Unlock()
	c.ms.position.Set(int64(position))
	if c.state != nil {
		// The bind is the new durable truth: compact the journal down to
		// it. Best effort — a failed rebase leaves older (still valid)
		// records behind.
		c.state.Rebase(position, mgr.K.Version)
	}
}

// RestoreMachine rebuilds a crashed subscriber: it replays the
// journal's committed updates onto a freshly booted manager (from the
// blob cache where possible, the transport otherwise), resolves a
// mid-flight apply — rolling it forward when its verified bytes are
// already local, rolling it back (journal abort) otherwise — and binds
// the recovered machine at the journal position with rollback floor
// floor. It returns the recovered position. Clients without a StateDir
// just bind at floor.
//
// The journal is cross-checked against the machine: a journal written
// for a different kernel version, or claiming more updates than the
// channel has, is degraded to re-derive rather than trusted.
func (c *Client) RestoreMachine(ctx context.Context, mgr *core.Manager, floor int) (int, error) {
	if c.state == nil {
		c.Bind(mgr, floor)
		return floor, nil
	}
	c.run.Lock()
	defer c.run.Unlock()
	ctx, done, err := c.syncCtx(ctx)
	if err != nil {
		return 0, err
	}
	defer done()
	rec := c.recovery
	target := rec.Position
	pending := rec.Pending
	if rec.KernelVersion != "" && rec.KernelVersion != mgr.K.Version {
		// The journal describes some other machine: torn state, re-derive.
		c.ms.tornDetected.Inc()
		target, pending = floor, nil
	}
	if target < floor {
		target = floor
	}
	if target > floor || pending != nil {
		m, err := c.manifest(ctx, mgr, floor)
		if err != nil {
			return 0, fmt.Errorf("channel: client %s recovery: %w", c.cfg.Name, err)
		}
		if target > len(m.Updates) {
			c.ms.tornDetected.Inc()
			target, pending = floor, nil
		}
		for i := floor; i < target; i++ {
			if err := c.replayEntry(ctx, mgr, m, m.Updates[i]); err != nil {
				return 0, fmt.Errorf("channel: client %s replaying %s: %w", c.cfg.Name, m.Updates[i].Name, err)
			}
		}
		if pending != nil {
			// The torn apply. Roll forward only from bytes already on this
			// machine — recovery must not depend on the network for the
			// update that was mid-flight.
			c.ms.tornDetected.Inc()
			rolled := false
			if pending.Pos == target+1 && target < len(m.Updates) {
				e := m.Updates[target]
				if b, ok := c.blobs.Get(e.Sha256); ok {
					if u, err := core.ReadTarVerified(b, e.Sha256, e.Size); err == nil {
						if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
							return 0, fmt.Errorf("channel: client %s rolling forward %s: %w", c.cfg.Name, e.Name, err)
						}
						if err := c.state.Commit(target + 1); err != nil {
							return 0, err
						}
						c.ms.journalReplays.Inc()
						target++
						rolled = true
					}
				}
			}
			if !rolled {
				if err := c.state.Abort(target); err != nil {
					return 0, err
				}
			}
		}
	}
	// Reconcile the applied counter with the recovered height: increments
	// lost in the crash window between an apply and its count (or a whole
	// previous process's worth, for a fresh one) are made up here, so
	// "applied" and "position" agree again fleet-wide.
	if have := int(c.reg.Snapshot().CounterFamily(MetricApplied)); have < target-floor {
		c.ms.applied.Add(uint64(target - floor - have))
	}
	c.state.Rebase(target, mgr.K.Version)
	c.mu.Lock()
	c.mgr = mgr
	c.base = floor
	c.pos = target
	c.mu.Unlock()
	c.ms.position.Set(int64(target))
	c.ms.recoveries.Inc()
	return target, nil
}

// replayEntry re-applies one committed update during recovery, through
// the same fetch-and-verify step as Sync: bytes from the blob cache when
// present, a verified transport fetch otherwise.
func (c *Client) replayEntry(ctx context.Context, mgr *core.Manager, m *Manifest, e Entry) error {
	u, _, err := c.fetchVerified(ctx, m, e)
	if err != nil {
		return err
	}
	if _, err := mgr.Apply(u, core.ApplyOptions{}); err != nil {
		return err
	}
	c.ms.journalReplays.Inc()
	return nil
}

// Position returns the machine's current channel position.
func (c *Client) Position() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos
}

// syncCtx derives a cancellable context registered with Close, so a
// closed client aborts every in-flight Sync (mid-backoff included). The
// context carries the client's metric set, so the transport counts its
// retries, backoffs and resumes into the client that asked.
func (c *Client) syncCtx(ctx context.Context) (context.Context, func(), error) {
	ctx, cancel := context.WithCancel(context.WithValue(ctx, clientMetricsKey{}, c.ms))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		return nil, nil, fmt.Errorf("channel: client %s is closed", c.cfg.Name)
	}
	key := &cancel
	c.cancels[key] = struct{}{}
	c.mu.Unlock()
	done := func() {
		c.mu.Lock()
		delete(c.cancels, key)
		c.mu.Unlock()
		cancel()
	}
	return ctx, done, nil
}

// ErrManifestRefused wraps every error for a manifest whose signature
// does not verify against the pinned key: test for it with errors.Is.
var ErrManifestRefused = errors.New("channel: refusing manifest")

// manifest fetches the channel manifest and refuses it unless it carries
// the pinned publisher's signature (ErrManifestRefused) and, when mgr is
// non-nil, serves mgr's kernel release. An unreachable channel comes
// back as a *PositionError at pos — an outage the machine rides out
// where it is; a refusal is a plain error.
func (c *Client) manifest(ctx context.Context, mgr *core.Manager, pos int) (*Manifest, error) {
	m, err := c.t.Manifest(ctx)
	if err != nil {
		return nil, &PositionError{Position: pos, Err: err}
	}
	if c.cfg.VerifyKey != nil {
		if err := m.VerifySignature(c.cfg.VerifyKey); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrManifestRefused, err)
		}
	}
	if mgr != nil && m.KernelVersion != mgr.K.Version {
		return nil, fmt.Errorf("channel: serves %q, machine runs %q", m.KernelVersion, mgr.K.Version)
	}
	return m, nil
}

// PositionError reports a Sync that stopped before the channel head —
// the channel became unreachable, an entry stayed corrupt through every
// refetch, an apply or its journal record failed, or the caller's
// context was cancelled. The machine remains consistent: exactly
// Position updates are applied (the original position plus everything
// the Sync managed), no update is partially applied, and the next Sync
// resumes where this one stopped.
type PositionError struct {
	// Position is the machine's channel position after the partial
	// sync.
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

// IsPosition reports whether err is a graceful partial-sync stop and
// returns it when so.
func IsPosition(err error) (*PositionError, bool) {
	var pe *PositionError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Sync applies every channel update the machine does not yet have, in
// order, from its current position up to the channel head, and returns
// the updates applied this call. The pass holds the client throughout:
// a second Sync (or a Rollback) waits for it rather than racing it over
// the same entries.
//
// Every tarball is verified against its manifest digest and size before
// it is parsed; corrupt bytes are re-fetched at most twice and are
// never handed to Apply. With a StateDir, each apply is bracketed by
// write-ahead journal records: begin once its bytes are verified, commit
// once it is live, before it is counted; an update whose post_apply hook
// fails is live, so it is committed and counted before the pass stops
// with the hook's error. The pass ends with one journal fsync, whose
// failure is Sync's error. If the channel becomes unreachable or an
// entry stays bad, Sync degrades gracefully: the machine keeps running
// at the position it reached, the recorded position advances to it, and
// the returned *PositionError reports how far that is. Cancelling ctx (or Close) stops the sync at the next
// update boundary, or mid-backoff inside the transport.
func (c *Client) Sync(ctx context.Context) ([]*core.Update, error) {
	c.run.Lock()
	defer c.run.Unlock()
	c.mu.Lock()
	mgr, from := c.mgr, c.pos
	c.mu.Unlock()
	if mgr == nil {
		return nil, fmt.Errorf("channel: client %s has no machine bound", c.cfg.Name)
	}
	ctx, done, err := c.syncCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	// The sync root span: every transport request and apply below joins
	// this trace, and the traceparent crosses the wire to the server.
	sp := c.tracer.Start("client.sync",
		telemetry.A("client", c.cfg.Name),
		telemetry.A("from", fmt.Sprintf("%d", from)))
	defer sp.End()
	ctx = telemetry.ContextWithSpan(ctx, sp)
	applied, err := c.syncFrom(ctx, sp, mgr, from)
	if ferr := c.flush(); ferr != nil && err == nil {
		err = ferr
	}
	to := from + len(applied)
	sp.SetAttr("applied", fmt.Sprintf("%d", len(applied)))
	sp.SetAttr("to", fmt.Sprintf("%d", to))
	c.mu.Lock()
	c.pos = to
	c.mu.Unlock()
	c.ms.position.Set(int64(to))
	return applied, err
}

// flush group-commits the journal records a pass appended: one fsync,
// after which the pass's position survives a power loss.
func (c *Client) flush() error {
	if c.state == nil {
		return nil
	}
	if err := c.state.Flush(); err != nil {
		return fmt.Errorf("channel: client %s flushing journal: %w", c.cfg.Name, err)
	}
	return nil
}

// syncFrom is Sync's pass over the entries past from. Each entry gets
// fetch and apply children under sp, and the fetch child's traceparent
// rides the transport's requests, so the server's handler spans nest
// inside it across the process boundary.
func (c *Client) syncFrom(ctx context.Context, sp *telemetry.Span, mgr *core.Manager, from int) ([]*core.Update, error) {
	m, err := c.manifest(ctx, mgr, from)
	if err != nil {
		if _, ok := IsPosition(err); ok {
			c.ms.degraded.Inc()
		}
		return nil, err
	}
	if from > len(m.Updates) {
		return nil, fmt.Errorf("channel: machine claims %d updates, channel has %d", from, len(m.Updates))
	}
	var out []*core.Update
	stop := func(e Entry, err error) ([]*core.Update, error) {
		c.ms.degraded.Inc()
		return out, &PositionError{Position: from + len(out), Entry: e.Name, Err: err}
	}
	for _, e := range m.Updates[from:] {
		if err := ctx.Err(); err != nil {
			return stop(e, err)
		}
		fsp := sp.Child("fetch", telemetry.A("entry", e.Name))
		u, b, err := c.fetchVerified(telemetry.ContextWithSpan(ctx, fsp), m, e)
		fsp.End()
		if err != nil {
			return stop(e, err)
		}
		pos := from + len(out) + 1
		if c.state != nil {
			if err := c.state.Begin(JournalEntry{Pos: pos, Name: e.Name, Sha256: e.Sha256, Size: e.Size, Manifest: m.Digest}, mgr.K.Version); err != nil {
				return stop(e, fmt.Errorf("journaling begin: %w", err))
			}
		}
		asp := sp.Child("apply", telemetry.A("entry", e.Name))
		a, applyErr := mgr.Apply(u, core.ApplyOptions{})
		asp.End()
		if a == nil {
			return stop(e, fmt.Errorf("applying: %w", applyErr))
		}
		// The update is live, even when a post_apply hook failed. Commit
		// before it is counted, so a journal that says "committed" never
		// claims an update the metrics have not seen.
		var commitErr error
		if c.state != nil {
			commitErr = c.state.Commit(pos)
		}
		c.ms.applied.Inc()
		out = append(out, u)
		c.ms.position.Set(int64(pos))
		if commitErr != nil {
			return stop(e, fmt.Errorf("journaling commit: %w", commitErr))
		}
		if applyErr != nil {
			return stop(e, fmt.Errorf("applying: %w", applyErr))
		}
		if c.cfg.OnApplied != nil {
			if err := c.cfg.OnApplied(e, b); err != nil {
				return stop(e, fmt.Errorf("on-applied hook: %w", err))
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
func (c *Client) fetchVerified(ctx context.Context, m *Manifest, e Entry) (*core.Update, []byte, error) {
	// Blob cache first: a machine that already verified these exact
	// bytes (an earlier sync killed before its position committed, a
	// rollback being re-applied) re-applies from local disk without
	// touching the wire. Get re-verifies the digest, so a rotted blob
	// falls through to the fetch below.
	if b, ok := c.blobs.Get(e.Sha256); ok {
		if u, err := core.ReadTarVerified(b, e.Sha256, e.Size); err == nil {
			return u, b, nil
		}
	}
	if b, ok := c.fetchViaDelta(ctx, m, e); ok {
		// ApplyDelta proved b has e's digest and size; decode it
		// without hashing it again.
		if u, err := core.DecodeTar(b); err == nil {
			return u, b, nil
		}
	}
	var lastErr error
	for attempt := 0; attempt <= maxRefetches; attempt++ {
		b, err := c.t.Fetch(ctx, e)
		if err != nil {
			return nil, nil, err
		}
		c.ms.bytesOverWire.Add(uint64(len(b)))
		u, err := core.ReadTarVerified(b, e.Sha256, e.Size)
		if err == nil {
			c.blobs.Put(e.Sha256, b)
			return u, b, nil
		}
		// Digest mismatch or unparseable bytes: the transport delivered
		// garbage. Fetch again; never interpret or apply what we have.
		c.ms.refetches.Inc()
		lastErr = err
	}
	return nil, nil, fmt.Errorf("corrupt after %d fetches: %w", maxRefetches+1, lastErr)
}

// fetchViaDelta reconstructs e's blob from an advertised binary delta,
// when one exists and its base is in the local cache. Every failure
// past "a delta was advertised" counts a full-fetch fallback; the delta
// format is self-verifying (base and result digests are in the header),
// so corrupt deltas and wrong bases are caught before any reconstructed
// byte is trusted. A delta whose header names any result but e's digest
// and size is refused before it is inflated, and ApplyDelta hands back
// only bytes that hash to the header's digest: the blob returned has
// e's digest and size, proven by the one hash ApplyDelta takes of it.
// The base goes in under its cache key, not hashed again: the cache
// holds only verified bytes (both Puts follow a verification), and a
// base whose bytes were not its key's would still fail that hash.
func (c *Client) fetchViaDelta(ctx context.Context, m *Manifest, e Entry) ([]byte, bool) {
	d := m.DeltaFor(e.Sha256)
	if d == nil {
		return nil, false
	}
	base, ok := c.blobs.Get(d.BaseSha256)
	if !ok {
		c.ms.deltaFallback.Inc()
		return nil, false
	}
	db, err := c.t.FetchBlob(ctx, d.Sha256, d.Size)
	if err != nil {
		c.ms.deltaFallback.Inc()
		return nil, false
	}
	c.ms.bytesOverWire.Add(uint64(len(db)))
	if blobDigest(db) != d.Sha256 {
		c.ms.deltaFallback.Inc()
		return nil, false
	}
	if digest, size, err := diffutil.DeltaResult(db); err != nil || digest != e.Sha256 || size != e.Size {
		// Publisher advertised a delta whose result is not the blob —
		// caught here, fall back to whole-blob fetch.
		c.ms.deltaFallback.Inc()
		return nil, false
	}
	b, err := diffutil.ApplyDelta(base, d.BaseSha256, db, e.Size)
	if err != nil {
		c.ms.deltaFallback.Inc()
		return nil, false
	}
	c.ms.deltaApplied.Inc()
	c.blobs.Put(e.Sha256, b)
	return b, true
}

// blobDigest is the digest b would be advertised under.
func blobDigest(b []byte) string {
	d, _ := core.TarDigest(b)
	return d
}

// Rollback undoes hot updates, most recent first, until the machine is
// back at position to (floored at the position it had when bound). This
// is the fleet-wide "pull the patch back out" path: every undo passes
// through the same quiescence machinery the applies did. It returns how
// many updates were undone, counting one whose post_reverse hook failed
// after the reversal (the pass stops there with the hook's error). The
// pass ends with one journal fsync.
func (c *Client) Rollback(to int) (int, error) {
	c.run.Lock()
	defer c.run.Unlock()
	c.mu.Lock()
	mgr := c.mgr
	if to < c.base {
		to = c.base
	}
	c.mu.Unlock()
	if mgr == nil {
		return 0, fmt.Errorf("channel: client %s has no machine bound", c.cfg.Name)
	}
	n, err := c.rollback(mgr, to)
	if ferr := c.flush(); ferr != nil && err == nil {
		err = ferr
	}
	return n, err
}

// rollback is Rollback's pass: undo and journal one update at a time
// until the machine is at position to.
func (c *Client) rollback(mgr *core.Manager, to int) (int, error) {
	n := 0
	for {
		c.mu.Lock()
		if c.pos <= to {
			c.mu.Unlock()
			return n, nil
		}
		c.mu.Unlock()
		// A failing post_reverse hook still pops the update, so the
		// position follows the stack, not the error.
		live := len(mgr.Applied())
		undoErr := mgr.Undo(core.ApplyOptions{})
		if len(mgr.Applied()) == live {
			return n, fmt.Errorf("channel: client %s rollback: %w", c.cfg.Name, undoErr)
		}
		c.mu.Lock()
		c.pos--
		pos := c.pos
		c.mu.Unlock()
		if c.state != nil {
			if err := c.state.Undo(pos); err != nil {
				return n + 1, fmt.Errorf("channel: client %s journaling undo: %w", c.cfg.Name, err)
			}
		}
		c.ms.position.Set(int64(pos))
		n++
		if undoErr != nil {
			return n, fmt.Errorf("channel: client %s rollback: %w", c.cfg.Name, undoErr)
		}
	}
}

// InstallStats is what InstallBase installed: nothing, since the
// channel ships update tarballs only. It remains so the InstallBase
// signature callers compile against stays stable.
type InstallStats struct{}

// InstallBase fetches the channel manifest and, when a key is pinned,
// verifies its signature — what a subscriber runs before booting its
// machine, so a manifest from the wrong publisher is refused before
// anything else happens. The machine's base kernel is its own: the
// channel ships no build artifacts for it.
func (c *Client) InstallBase(ctx context.Context) (*Manifest, InstallStats, error) {
	var st InstallStats
	ctx, done, err := c.syncCtx(ctx)
	if err != nil {
		return nil, st, err
	}
	defer done()
	m, err := c.manifest(ctx, nil, c.Position())
	return m, st, err
}

// Pusher returns a telemetry pusher that reports this client's registry
// to a fleet aggregation endpoint under the client's name.
func (c *Client) Pusher(url string) *telemetry.Pusher {
	p := &telemetry.Pusher{
		URL:    url,
		Source: c.cfg.Name,
		Gather: func() telemetry.Snapshot { return c.reg.Snapshot() },
	}
	// The client's spans ride upstream with each report (deduped
	// aggregator-side by span sequence). Fleets hand each member a
	// private tracer so a member ships only its own spans.
	p.Tracer = c.tracer
	return p
}

// Close cancels every in-flight Sync and refuses new ones. It does not
// touch the machine: applied updates stay applied (use Rollback first
// to remove them).
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	cancels := make([]*context.CancelFunc, 0, len(c.cancels))
	for k := range c.cancels {
		cancels = append(cancels, k)
	}
	c.mu.Unlock()
	for _, k := range cancels {
		(*k)()
	}
	if c.state != nil {
		c.state.Close()
	}
}
