// Package fleet drives hundreds of simulated subscriber machines
// through an update channel in canary rings — the deployment lifecycle
// Ksplice's fleet story implies: patch 1% of machines, watch their
// health, promote to 10%, watch again, then everyone; and when a ring
// degrades past the health policy, stop promoting and pull the patch
// back out of every machine it reached, via the same undo machinery
// that made the applies safe.
//
// Everything runs in one process: each member is a channel.Client with
// its own cloned kernel, its own telemetry registry, and (optionally)
// its own fault-injection plan, subscribing over real loopback HTTP to
// per-release channel servers. Members push their registry snapshots to
// the servers' shared /fleet/report endpoint, and the orchestrator's
// promotion gate reads the same merged /fleet/health view an operator
// watches — the gate sees exactly what the dashboard sees, nothing
// more.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/faultinject"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

// HealthPolicy is the per-ring promotion gate, evaluated over the
// /fleet/health rows of the ring's members after the ring syncs.
type HealthPolicy struct {
	// MaxUnhealthyFrac is the fraction of a ring's members that may be
	// unhealthy — degraded mid-subscribe or failing stress probes —
	// before promotion halts (default 0.10; a 1% canary ring of a small
	// fleet is one machine, so one bad canary halts everything, which is
	// the point of canaries).
	MaxUnhealthyFrac float64
	// MaxRefetchesPerMember halts when integrity refetches averaged over
	// the ring exceed it — a channel serving corrupt bytes is not safe
	// to promote even if every member eventually recovered (default 16).
	MaxRefetchesPerMember float64
	// MaxDeltaFallbacksPerMember likewise bounds average delta
	// reconstruction failures (default 32; fallbacks cost bandwidth, not
	// correctness, so the default is loose).
	MaxDeltaFallbacksPerMember float64
}

func (p *HealthPolicy) defaults() {
	if p.MaxUnhealthyFrac <= 0 {
		p.MaxUnhealthyFrac = 0.10
	}
	if p.MaxRefetchesPerMember <= 0 {
		p.MaxRefetchesPerMember = 16
	}
	if p.MaxDeltaFallbacksPerMember <= 0 {
		p.MaxDeltaFallbacksPerMember = 32
	}
}

// Config sizes and shapes one rollout.
type Config struct {
	// Clients is the fleet size (default 64).
	Clients int
	// Releases are the base kernel releases to mix across the fleet,
	// round-robin (default: every corpus release). Each release gets its
	// own channel and server; a member subscribes to its release's.
	Releases []string
	// Rings are cumulative fleet fractions per ring (default 1%, 10%,
	// 100%).
	Rings []float64
	// Health gates promotion between rings.
	Health HealthPolicy
	// Workers bounds concurrent member syncs (default 8).
	Workers int
	// Apply passes through to every member's update manager.
	Apply core.ApplyOptions
	// Seed drives ring assignment shuffling and per-member transport
	// jitter (default 1).
	Seed int64
	// FaultPlan, when non-nil, supplies a member's client-side fault
	// plan by fleet index (nil return = no faults for that member).
	FaultPlan func(i int) *faultinject.Plan
	// BurstRing, when > 0, injects a hard fault burst into that ring
	// (1-based): BurstClients of its members get transports that error
	// outright, the failure mode that must halt the rollout.
	BurstRing int
	// BurstClients is how many members of BurstRing get the burst
	// (default: enough to trip Health.MaxUnhealthyFrac).
	BurstClients int
	// SlowEvery makes every Nth member a slow machine, one that pauses
	// 2ms after every applied update (0 = none).
	SlowEvery int
	// KillEvery makes every Nth member killable: it keeps its position
	// in a persistent state dir (under StateRoot) and a crash schedule
	// kills its process at a labeled persistence crash point mid-sync.
	// The orchestrator then "reboots" it — a fresh kernel clone, a new
	// client over the surviving state dir — recovers it through the
	// apply journal, and the member rejoins its ring and finishes the
	// sync. 0 = nobody dies.
	KillEvery int
	// KillPoint is the crash-point label killable members die at
	// (default "": the first labeled point their sync reaches — journal
	// appends, blob-cache renames, whichever comes first).
	KillPoint string
	// KillHit is which hit of KillPoint kills (default: staggered per
	// member, 1 + idx mod 7, so deaths land at different depths of the
	// sync instead of all on the first write).
	KillHit int
	// StateRoot roots killable members' state dirs (default
	// WorkDir/state; required via one or the other when KillEvery > 0).
	StateRoot string
	// Joins is how many extra machines join mid-rollout, before the
	// final ring (they were not part of the original fleet).
	Joins int
	// Leaves is how many final-ring members leave mid-sync: their sync
	// is cancelled after their first applied update and they drop out of
	// the health view — exercising both context cancellation and
	// aggregator Forget.
	Leaves int
	// StressRounds is the post-sync stress probe's workload per member
	// (default 25; 0 < 0 disables — set to -1 to skip probes).
	StressRounds int
	// PushInterval, when > 0, additionally runs a periodic background
	// pusher per member during its sync (members always push once after
	// each sync regardless).
	PushInterval time.Duration
	// ChannelDirs maps release -> pre-published channel directory.
	// Releases missing from the map are published into WorkDir. A bench
	// harness pre-publishes once and reuses the dirs across runs.
	ChannelDirs map[string]string
	// WorkDir roots published channels when ChannelDirs does not supply
	// them (required then).
	WorkDir string
	// EventLog, when non-empty, is a file path the rollout's typed event
	// timeline is journaled to as JSONL (one event per line, the same
	// records /fleet/events serves) — the post-mortem artifact.
	EventLog string
	// Logf, when non-nil, receives rollout narration.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if len(c.Releases) == 0 {
		c.Releases = cvedb.Versions
	}
	if len(c.Rings) == 0 {
		c.Rings = []float64{0.01, 0.10, 1.0}
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StressRounds == 0 {
		c.StressRounds = 25
	}
	c.Health.defaults()
}

// RingResult is one ring's outcome.
type RingResult struct {
	// Ring is 1-based.
	Ring int
	// Members is how many machines the ring covered (joins included).
	Members int
	// Synced is how many reached their channel head.
	Synced int
	// Unhealthy is how many ended degraded or failing stress.
	Unhealthy int
	// Promoted reports whether the health gate passed.
	Promoted bool
	// Duration is sync start to gate decision.
	Duration time.Duration
}

// Result is the rollout's outcome.
type Result struct {
	Clients  int
	Releases []string
	Rings    []RingResult
	// Halted reports a health-gated stop; HaltedRing is the ring (1-based)
	// that failed its gate.
	Halted     bool
	HaltedRing int
	// RolledBack counts undo operations performed fleet-wide after the
	// halt; RollbackFailures counts machines whose rollback errored.
	RolledBack       int
	RollbackFailures int
	// TimeToHalt is rollout start to the failing gate's decision;
	// TimeToRollback is the gate's decision to the last undo.
	TimeToHalt     time.Duration
	TimeToRollback time.Duration
	// TraceID is the rollout root span's trace id; every orchestrator
	// event carries it, so the timeline and the distributed trace
	// cross-reference.
	TraceID string
	// Events is the rollout's typed event timeline (what /fleet/events
	// served), oldest first.
	Events []channel.FleetEvent
	// Kills is how many members were killed mid-sync by their crash
	// schedule; Reboots is how many came back through journal recovery
	// (equal unless a reboot itself failed).
	Kills, Reboots int
	// Applied is the fleet-wide count of updates applied (and still
	// applied, post-rollback ones included — it is cumulative).
	Applied uint64
	// BytesOverWire is total content bytes the fleet pulled.
	BytesOverWire uint64
	Joined, Left  int
	// Health is the final /fleet/health view, fetched over HTTP.
	Health channel.FleetHealth
	// HealthURL is where the operator watched (still live only during
	// Run; recorded for the log).
	HealthURL string
}

// member is one simulated machine.
type member struct {
	idx     int
	name    string
	release string
	ring    int // 1-based
	client  *channel.Client
	kernel  *kernel.Kernel
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	stress  *telemetry.Counter
	pusher  *telemetry.Pusher

	// Killable members: a persistent state dir, the client config to
	// rebuild from after a death, and the crash schedule. The armed hook
	// is non-nil only inside syncMember's catch boundary, so deaths can
	// never unwind past it (a Bind outside a sync fires crash points
	// too, but into a disarmed hook).
	stateDir string
	ccfg     channel.ClientConfig
	killPlan *faultinject.Plan
	crashMu  sync.Mutex
	crash    crashpoint.Hook

	mu        sync.Mutex
	cancel    context.CancelFunc // cancels the in-flight sync (leavers)
	applies   int
	leaveAt   int // cancel sync after this many applies (0 = never)
	left      bool
	unhealthy bool
	synced    bool
	kills     int
	reboots   int
}

// fireCrash is the member's ClientConfig.Crash hook: it forwards to the
// currently armed hook, if any.
func (m *member) fireCrash(label string) {
	m.crashMu.Lock()
	h := m.crash
	m.crashMu.Unlock()
	if h != nil {
		h(label)
	}
}

func (m *member) armCrash(h crashpoint.Hook) {
	m.crashMu.Lock()
	m.crash = h
	m.crashMu.Unlock()
}

// Orchestrator owns a fleet rollout: the channels, servers, template
// kernels, and members. Create with New, run with Run.
type Orchestrator struct {
	cfg       Config
	agg       *channel.FleetAggregator
	dirs      map[string]string // release -> channel dir
	urls      map[string]string // release -> server base URL
	srvs      []*http.Server
	tmpl      map[string]*kernel.Kernel
	head      map[string]int // release -> channel length
	stateRoot string         // killable members' state dirs live here
	eventLog  io.Closer      // the EventLog file, closed with the servers

	traceMu      sync.Mutex
	rolloutTrace string // the rollout root span's trace id (set by Run)
}

// Aggregator exposes the shared fleet aggregator — the health, history,
// event, and merged-trace store every server serves from.
func (o *Orchestrator) Aggregator() *channel.FleetAggregator { return o.agg }

// event records one typed rollout event, stamped with the rollout's
// trace id unless the caller set one.
func (o *Orchestrator) event(ev channel.FleetEvent) {
	if ev.TraceID == "" {
		o.traceMu.Lock()
		ev.TraceID = o.rolloutTrace
		o.traceMu.Unlock()
	}
	o.agg.RecordEvent(ev)
}

// New publishes (or adopts) the per-release channels, starts their
// servers around one shared fleet aggregator, and boots the per-release
// template kernels that members clone from.
func New(cfg Config) (*Orchestrator, error) {
	cfg.defaults()
	o := &Orchestrator{
		cfg:  cfg,
		agg:  channel.NewFleetAggregator(),
		dirs: map[string]string{},
		urls: map[string]string{},
		tmpl: map[string]*kernel.Kernel{},
		head: map[string]int{},
	}
	if cfg.EventLog != "" {
		f, err := os.Create(cfg.EventLog)
		if err != nil {
			return nil, fmt.Errorf("fleet: event log: %w", err)
		}
		o.agg.EventSink = f
		o.eventLog = f
	}
	if cfg.KillEvery > 0 {
		o.stateRoot = cfg.StateRoot
		if o.stateRoot == "" {
			if cfg.WorkDir == "" {
				return nil, fmt.Errorf("fleet: KillEvery needs StateRoot or WorkDir for member state dirs")
			}
			o.stateRoot = fmt.Sprintf("%s/state", cfg.WorkDir)
		}
	}
	for _, rel := range cfg.Releases {
		dir, ok := cfg.ChannelDirs[rel]
		if !ok {
			if cfg.WorkDir == "" {
				return nil, fmt.Errorf("fleet: release %s has no channel dir and no WorkDir to publish into", rel)
			}
			dir = fmt.Sprintf("%s/channel-%s", cfg.WorkDir, rel)
		}
		if err := PublishChannel(dir, rel, false); err != nil {
			o.Close()
			return nil, err
		}
		m, err := channel.ReadManifest(dir)
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("fleet: %s: %w", rel, err)
		}
		o.dirs[rel] = dir
		o.head[rel] = len(m.Updates)

		srv := channel.NewServer(dir)
		srv.Fleet = o.agg
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("fleet: %s server: %w", rel, err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		o.srvs = append(o.srvs, hs)
		o.urls[rel] = "http://" + ln.Addr().String()

		// Template kernel: built and linked through the process-wide
		// srctree caches, booted once; every member of this release
		// clones it instead of re-booting.
		br, err := srctree.BuildCached(cvedb.Tree(rel), codegen.KernelBuild())
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("fleet: building %s: %w", rel, err)
		}
		im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("fleet: linking %s: %w", rel, err)
		}
		k, err := kernel.BootImage(br, im, 0)
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("fleet: booting %s: %w", rel, err)
		}
		o.tmpl[rel] = k
	}
	return o, nil
}

// Close shuts the channel servers down and closes the event log.
func (o *Orchestrator) Close() {
	for _, s := range o.srvs {
		s.Close()
	}
	if o.eventLog != nil {
		o.eventLog.Close()
	}
}

// HealthURL returns the operator's fleet-health endpoint (the first
// release's server; all servers share the aggregator so any one works).
func (o *Orchestrator) HealthURL() string {
	if len(o.cfg.Releases) == 0 {
		return ""
	}
	return o.urls[o.cfg.Releases[0]] + "/fleet/health"
}

// PublishChannel publishes release's full CVE corpus into dir, skipping
// the work when dir already holds the complete channel (what lets a
// bench reuse one published tree across runs). The third parameter is
// ignored: it used to select a channel without prebuilt build
// artifacts, and channels now never carry any. It stays so existing
// callers keep compiling.
func PublishChannel(dir, release string, _ bool) error {
	cves := cvedb.ForVersion(release)
	if len(cves) == 0 {
		return fmt.Errorf("fleet: release %s has no corpus", release)
	}
	if m, err := channel.ReadManifest(dir); err == nil && len(m.Updates) == len(cves) {
		return nil
	}
	pub, err := channel.NewPublisher(dir, cvedb.Tree(release))
	if err != nil {
		return fmt.Errorf("fleet: publishing %s: %w", release, err)
	}
	for _, c := range cves {
		if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
			return fmt.Errorf("fleet: publishing %s/%s: %w", release, c.ID, err)
		}
	}
	return nil
}

func (o *Orchestrator) logf(format string, args ...any) {
	if o.cfg.Logf != nil {
		o.cfg.Logf(format, args...)
	}
}

// newMember builds one machine: registry, transport (seeded, metrics
// attached), optional fault plan, clone of the release template, and a
// client bound at position 0.
func (o *Orchestrator) newMember(idx, ring int, burst bool) (*member, error) {
	rel := o.cfg.Releases[idx%len(o.cfg.Releases)]
	m := &member{
		idx:     idx,
		name:    fmt.Sprintf("c%04d-%s", idx, rel),
		release: rel,
		ring:    ring,
		reg:     telemetry.NewRegistry(),
		// A private tracer per member: its pusher ships exactly this
		// machine's spans upstream, where they become one lane of the
		// merged fleet trace.
		tracer: telemetry.NewTracer(2048),
	}
	m.reg.Help(channel.MetricStressFailures, "post-apply stress probes that failed")
	m.stress = m.reg.Counter(channel.MetricStressFailures)

	tr := channel.NewHTTPTransport(o.urls[rel], channel.HTTPOptions{
		Timeout:    10 * time.Second,
		MaxRetries: 6,
		Backoff:    time.Millisecond,
		Seed:       o.cfg.Seed + int64(idx) + 1,
	})
	var plan *faultinject.Plan
	if burst {
		// The burst: the transport errors outright on its first
		// operations — the channel is unreachable from this machine, the
		// failure mode a canary ring exists to catch.
		plan = faultinject.New(
			faultinject.Fault{Op: 1, Kind: faultinject.Error},
			faultinject.Fault{Op: 2, Kind: faultinject.Error},
		)
	} else if o.cfg.FaultPlan != nil {
		plan = o.cfg.FaultPlan(idx)
	}
	slow := o.cfg.SlowEvery > 0 && idx%o.cfg.SlowEvery == o.cfg.SlowEvery-1
	cfg := channel.ClientConfig{
		Name:      m.name,
		Transport: tr,
		Registry:  m.reg,
		Tracer:    m.tracer,
		Apply:     o.cfg.Apply,
		OnApplied: func(channel.Entry, []byte) error {
			m.mu.Lock()
			m.applies++
			leave := m.leaveAt > 0 && m.applies >= m.leaveAt && !m.left
			cancel := m.cancel
			m.mu.Unlock()
			if leave && cancel != nil {
				// The machine powers off mid-rollout: cancel its own sync
				// and let the PositionError path record where it stopped.
				cancel()
			}
			if slow {
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		},
	}
	if plan != nil {
		cfg.WrapTransport = func(t channel.Transport) channel.Transport {
			return faultinject.WrapTransport(t, plan)
		}
	}
	if o.cfg.KillEvery > 0 && idx%o.cfg.KillEvery == o.cfg.KillEvery-1 {
		// A killable machine: its position persists under stateRoot, and
		// a crash schedule will kill it mid-sync. Hits are staggered
		// across the fleet so deaths land at different sync depths.
		hit := o.cfg.KillHit
		if hit <= 0 {
			hit = 1 + idx%7
		}
		m.stateDir = fmt.Sprintf("%s/%s", o.stateRoot, m.name)
		m.killPlan = faultinject.New().WithCrash(o.cfg.KillPoint, hit)
		cfg.StateDir = m.stateDir
		cfg.Crash = m.fireCrash
	}
	m.ccfg = cfg
	cl, err := channel.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	k, err := o.tmpl[rel].Clone()
	if err != nil {
		return nil, fmt.Errorf("fleet: cloning %s kernel for %s: %w", rel, m.name, err)
	}
	cl.Bind(core.NewManager(k), 0)
	m.client = cl
	m.kernel = k
	m.pusher = cl.Pusher(o.urls[rel]+"/fleet/report", o.cfg.PushInterval)
	return m, nil
}

// syncMember runs one member's sync, stress probe, and report push.
func (o *Orchestrator) syncMember(ctx context.Context, m *member) {
	sctx, cancel := context.WithCancel(ctx)
	m.mu.Lock()
	m.cancel = cancel
	m.mu.Unlock()
	defer cancel()

	var stopPush func()
	if o.cfg.PushInterval > 0 {
		pctx, pcancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() { defer close(done); m.pusher.Run(pctx) }()
		stopPush = func() { pcancel(); <-done }
	}

	var err error
	for {
		var death *crashpoint.Death
		if m.killPlan != nil {
			m.armCrash(m.killPlan.CrashHook())
			death = crashpoint.Catch(func() { _, err = m.client.Sync(sctx) })
			m.armCrash(nil)
		} else {
			_, err = m.client.Sync(sctx)
		}
		if death == nil {
			break
		}
		// The process died at a persistence crash point: everything in
		// memory is gone, only the state dir survives. Reboot the
		// machine — fresh kernel clone, new client over the same state
		// dir — and let journal recovery bring it back to position; the
		// loop then resumes the sync (the crash schedule is spent, so
		// the member cannot die twice).
		m.mu.Lock()
		m.kills++
		m.mu.Unlock()
		err = nil
		o.event(channel.FleetEvent{Type: channel.EventKill, Ring: m.ring, Member: m.name,
			Detail: fmt.Sprintf("died at crash point %s (hit %d)", death.Label, death.Hit)})
		o.logf("fleet: %s killed at crash point %s (hit %d); rebooting", m.name, death.Label, death.Hit)
		if rerr := o.rebootMember(ctx, m); rerr != nil {
			o.logf("fleet: %s reboot failed: %v", m.name, rerr)
			m.reg.Counter(channel.MetricDegraded).Inc()
			m.setUnhealthy()
			break
		}
		m.mu.Lock()
		m.reboots++
		m.mu.Unlock()
		o.event(channel.FleetEvent{Type: channel.EventRecover, Ring: m.ring, Member: m.name,
			Detail: fmt.Sprintf("journal recovery to position %d", m.client.Position())})
		o.logf("fleet: %s recovered at position %d; rejoining ring", m.name, m.client.Position())
	}
	m.mu.Lock()
	cancelled := m.left || (m.leaveAt > 0 && m.applies >= m.leaveAt)
	m.mu.Unlock()
	if err != nil {
		if _, ok := channel.IsPosition(err); !ok {
			// Hard errors (version mismatch, refused manifest) also count
			// as unhealthy; they are not supposed to happen in the fleet.
			m.reg.Counter(channel.MetricDegraded).Inc()
		}
		if !cancelled {
			m.setUnhealthy()
		}
	}
	if m.client.Position() == o.head[m.release] {
		m.mu.Lock()
		m.synced = true
		m.mu.Unlock()
	}
	// Post-apply stress probe: a machine whose patched kernel misbehaves
	// under load is unhealthy even though every apply "succeeded".
	if o.cfg.StressRounds > 0 && !cancelled {
		if bad, err := m.kernel.Call("stress_main", int64(o.cfg.StressRounds)); err != nil || bad != 0 {
			m.stress.Inc()
			m.setUnhealthy()
		}
	}
	if stopPush != nil {
		stopPush() // final push on cancel covers the post-sync state
	} else if err := m.pusher.Push(ctx); err != nil {
		o.logf("fleet: %s report push: %v", m.name, err)
	}
}

// rebootMember brings a killed machine back: the dead client's handles
// are released, a fresh kernel is cloned from the release template, and
// a new client — same name, same registry, same state dir, same
// transport — recovers it through the apply journal. The pusher keeps
// working across the reboot (it gathers from the shared registry), so
// the member's counters stay cumulative fleet-wide.
func (o *Orchestrator) rebootMember(ctx context.Context, m *member) error {
	m.client.Close()
	k, err := o.tmpl[m.release].Clone()
	if err != nil {
		return fmt.Errorf("fleet: recloning %s kernel for %s: %w", m.release, m.name, err)
	}
	cl, err := channel.NewClient(m.ccfg)
	if err != nil {
		return fmt.Errorf("fleet: rebuilding client %s: %w", m.name, err)
	}
	if _, err := cl.RestoreMachine(ctx, core.NewManager(k), 0); err != nil {
		cl.Close()
		return fmt.Errorf("fleet: recovering %s: %w", m.name, err)
	}
	m.mu.Lock()
	m.client, m.kernel = cl, k
	m.mu.Unlock()
	return nil
}

func (m *member) setUnhealthy() {
	m.mu.Lock()
	m.unhealthy = true
	m.mu.Unlock()
}

// fetchHealth reads the merged fleet view over HTTP — the same bytes an
// operator's watch loop gets.
func (o *Orchestrator) fetchHealth() (channel.FleetHealth, error) {
	var h channel.FleetHealth
	resp, err := http.Get(o.HealthURL())
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return h, fmt.Errorf("fleet: health endpoint returned %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, err
	}
	return h, nil
}

// gate evaluates the health policy over one ring's members using the
// fetched fleet view. It returns the unhealthy member count and whether
// the ring may promote.
func (o *Orchestrator) gate(h channel.FleetHealth, ring []*member) (int, bool) {
	rows := make(map[string]channel.ClientHealth, len(h.Clients))
	for _, r := range h.Clients {
		rows[r.Source] = r
	}
	var unhealthy, n int
	var refetches, fallbacks uint64
	for _, m := range ring {
		m.mu.Lock()
		left := m.left
		m.mu.Unlock()
		if left {
			continue
		}
		n++
		r, ok := rows[m.name]
		if !ok {
			// Never reported: treat as unhealthy — an invisible machine
			// cannot be called safe.
			unhealthy++
			continue
		}
		if r.Degraded > 0 || r.StressFailures > 0 {
			unhealthy++
		}
		refetches += r.Refetches
		fallbacks += r.DeltaFallbacks
	}
	if n == 0 {
		return 0, true
	}
	p := o.cfg.Health
	if float64(unhealthy)/float64(n) > p.MaxUnhealthyFrac {
		return unhealthy, false
	}
	if float64(refetches)/float64(n) > p.MaxRefetchesPerMember {
		return unhealthy, false
	}
	if float64(fallbacks)/float64(n) > p.MaxDeltaFallbacksPerMember {
		return unhealthy, false
	}
	return unhealthy, true
}

// Run executes the rollout: assign rings, sync ring by ring, gate on
// /fleet/health between rings, and on a failed gate roll every patched
// machine back to its base and stop. The context cancels everything,
// mid-backoff included.
func (o *Orchestrator) Run(ctx context.Context) (*Result, error) {
	cfg := o.cfg
	res := &Result{Clients: cfg.Clients, Releases: cfg.Releases, HealthURL: o.HealthURL()}
	start := time.Now()

	// The rollout root span. Its trace id stamps every orchestrator
	// event, so the timeline cross-references the distributed trace.
	rsp := telemetry.DefaultTracer().Start("fleet.rollout",
		telemetry.A("clients", fmt.Sprintf("%d", cfg.Clients)))
	defer rsp.End()
	o.traceMu.Lock()
	o.rolloutTrace = rsp.TraceID()
	o.traceMu.Unlock()
	res.TraceID = rsp.TraceID()

	// Ring assignment: shuffle the fleet deterministically, then cut it
	// at the cumulative ring fractions.
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(cfg.Clients)
	ringOf := make([]int, cfg.Clients) // fleet idx -> 1-based ring
	prev := 0
	for r, frac := range cfg.Rings {
		end := int(float64(cfg.Clients)*frac + 0.5)
		if r == len(cfg.Rings)-1 {
			end = cfg.Clients
		}
		if end < prev+1 && prev < cfg.Clients {
			end = prev + 1 // every ring gets at least one machine
		}
		for i := prev; i < end && i < cfg.Clients; i++ {
			ringOf[order[i]] = r + 1
		}
		prev = end
	}

	// Build the fleet. Burst members are the first BurstClients of the
	// burst ring, in fleet order.
	burstLeft := 0
	if cfg.BurstRing > 0 {
		burstLeft = cfg.BurstClients
		if burstLeft <= 0 {
			ringSize := 0
			for _, r := range ringOf {
				if r == cfg.BurstRing {
					ringSize++
				}
			}
			burstLeft = int(float64(ringSize)*cfg.Health.MaxUnhealthyFrac) + 1
		}
	}
	rings := make([][]*member, len(cfg.Rings))
	var all []*member
	for i := 0; i < cfg.Clients; i++ {
		r := ringOf[i]
		burst := r == cfg.BurstRing && burstLeft > 0
		if burst {
			burstLeft--
		}
		m, err := o.newMember(i, r, burst)
		if err != nil {
			return nil, err
		}
		rings[r-1] = append(rings[r-1], m)
		all = append(all, m)
	}

	// Leavers: final-ring members that power off after their first
	// applied update.
	if cfg.Leaves > 0 {
		last := rings[len(rings)-1]
		for i := 0; i < cfg.Leaves && i < len(last); i++ {
			last[i].leaveAt = 1
		}
	}

	o.logf("fleet: %d machines across %d releases, rings %v, watching %s",
		cfg.Clients, len(cfg.Releases), cfg.Rings, res.HealthURL)

	syncRing := func(ring []*member) {
		sem := make(chan struct{}, cfg.Workers)
		var wg sync.WaitGroup
		for _, m := range ring {
			wg.Add(1)
			sem <- struct{}{}
			go func(m *member) {
				defer wg.Done()
				defer func() { <-sem }()
				o.syncMember(ctx, m)
			}(m)
		}
		wg.Wait()
	}

	halted := false
	for ri, ring := range rings {
		if halted {
			break
		}
		// Mid-rollout joins arrive before the final ring.
		if ri == len(rings)-1 && cfg.Joins > 0 {
			for j := 0; j < cfg.Joins; j++ {
				m, err := o.newMember(cfg.Clients+j, ri+1, false)
				if err != nil {
					return nil, err
				}
				ring = append(ring, m)
				rings[ri] = ring
				all = append(all, m)
				res.Joined++
				o.event(channel.FleetEvent{Type: channel.EventJoin, Ring: ri + 1, Member: m.name,
					Detail: "joined mid-rollout"})
			}
		}
		t0 := time.Now()
		o.event(channel.FleetEvent{Type: channel.EventRingStart, Ring: ri + 1,
			Detail: fmt.Sprintf("syncing %d machines", len(ring))})
		o.logf("fleet: ring %d: syncing %d machines", ri+1, len(ring))
		syncRing(ring)

		// Leavers drop out of the health view before the gate reads it.
		for _, m := range ring {
			m.mu.Lock()
			leftNow := m.leaveAt > 0 && m.applies >= m.leaveAt && !m.left
			if leftNow {
				m.left = true
			}
			m.mu.Unlock()
			if leftNow {
				o.agg.Forget(m.name)
				m.client.Close()
				res.Left++
				o.event(channel.FleetEvent{Type: channel.EventLeave, Ring: ri + 1, Member: m.name,
					Detail: fmt.Sprintf("left mid-rollout at position %d", m.client.Position())})
				o.logf("fleet: %s left mid-rollout at position %d", m.name, m.client.Position())
			}
		}

		h, err := o.fetchHealth()
		if err != nil {
			return nil, fmt.Errorf("fleet: reading health view: %w", err)
		}
		unhealthy, promote := o.gate(h, ring)
		synced := 0
		for _, m := range ring {
			m.mu.Lock()
			if m.synced {
				synced++
			}
			m.mu.Unlock()
		}
		rr := RingResult{
			Ring:      ri + 1,
			Members:   len(ring),
			Synced:    synced,
			Unhealthy: unhealthy,
			Promoted:  promote,
			Duration:  time.Since(t0),
		}
		res.Rings = append(res.Rings, rr)
		if !promote {
			halted = true
			res.Halted = true
			res.HaltedRing = ri + 1
			res.TimeToHalt = time.Since(start)
			o.event(channel.FleetEvent{Type: channel.EventGateFail, Ring: ri + 1,
				Detail: fmt.Sprintf("%d/%d unhealthy: halting rollout", unhealthy, len(ring))})
			o.logf("fleet: ring %d failed its health gate (%d/%d unhealthy): halting rollout",
				ri+1, unhealthy, len(ring))
		} else {
			o.event(channel.FleetEvent{Type: channel.EventPromote, Ring: ri + 1,
				Detail: fmt.Sprintf("%d/%d synced", synced, len(ring))})
			o.logf("fleet: ring %d healthy (%d/%d synced): promoting", ri+1, synced, len(ring))
		}
	}

	if halted {
		// Fleet-wide rollback: every patched machine undoes, most recent
		// first, back to its pre-rollout base — the same quiescence-gated
		// path that applied the updates removes them.
		t0 := time.Now()
		var mu sync.Mutex
		sem := make(chan struct{}, cfg.Workers)
		var wg sync.WaitGroup
		for _, m := range all {
			m.mu.Lock()
			skip := m.left
			m.mu.Unlock()
			if skip || m.client.Position() == 0 {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(m *member) {
				defer wg.Done()
				defer func() { <-sem }()
				n, err := m.client.Rollback(0)
				mu.Lock()
				res.RolledBack += n
				if err != nil {
					res.RollbackFailures++
				}
				mu.Unlock()
				if err != nil {
					o.logf("fleet: %s rollback: %v", m.name, err)
				}
				if err := m.pusher.Push(ctx); err != nil {
					o.logf("fleet: %s report push: %v", m.name, err)
				}
			}(m)
		}
		wg.Wait()
		res.TimeToRollback = time.Since(t0)
		o.event(channel.FleetEvent{Type: channel.EventRollback, Ring: res.HaltedRing,
			Detail: fmt.Sprintf("rolled back %d updates across the fleet (%d failures)",
				res.RolledBack, res.RollbackFailures)})
		o.logf("fleet: rolled back %d updates across the fleet in %s",
			res.RolledBack, res.TimeToRollback.Round(time.Millisecond))
	}

	for _, m := range all {
		m.mu.Lock()
		res.Kills += m.kills
		res.Reboots += m.reboots
		m.mu.Unlock()
	}

	h, err := o.fetchHealth()
	if err != nil {
		return nil, fmt.Errorf("fleet: reading final health view: %w", err)
	}
	res.Health = h
	res.Applied = h.Applied
	res.BytesOverWire = h.BytesOverWire
	res.Events = o.agg.Events()
	return res, nil
}
