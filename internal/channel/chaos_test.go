// Chaos soak: the whole 64-CVE corpus published into per-release
// channels, served over HTTP through fault injectors, and subscribed by
// a fleet of machines whose clients are themselves faulty. Every fault
// class fires somewhere in the fleet; every machine either reaches the
// channel head or stops at a clean position, and resumes to the head from
// there. This file is the -race soak `make check` runs with -run
// ChaosSoak.
package channel_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/core"
	"gosplice/internal/crashpoint"
	"gosplice/internal/cvedb"
	"gosplice/internal/faultinject"
	"gosplice/internal/kernel"
	"gosplice/internal/telemetry"
)

// chaosProbe runs one CVE probe; it returns errors rather than failing
// the test because it is called from fleet-member goroutines.
func chaosProbe(k *kernel.Kernel, c *cvedb.CVE) (int64, error) {
	addr, err := k.Syms.BaseFunc(c.Probe.Entry)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.ID, err)
	}
	task, err := k.SpawnAt("probe", addr, c.Probe.UID, c.Probe.Args...)
	if err != nil {
		return 0, err
	}
	if err := k.RunUntilExit(task, 50_000_000); err != nil {
		return 0, fmt.Errorf("%s: %w", c.ID, err)
	}
	code := task.ExitCode
	k.ReapExited()
	return code, nil
}

// memberPlans builds the fault schedules for one fleet member. Member 0
// of each release gets explicit server-side faults covering every class;
// member 1 gets a hostile client (including a hard mid-channel Error the
// transport cannot retry away, forcing the graceful-stop path); member 2
// is the delta subscriber, under seeded server faults that land on delta
// blob fetches as well as tarballs. Seeded extras differ per member.
func memberPlans(release, member int) (server, client *faultinject.Plan) {
	seed := int64(1000*release + member)
	switch member {
	case 0:
		return faultinject.New(
			faultinject.Fault{Op: 1, Kind: faultinject.Delay, Sleep: time.Millisecond},
			faultinject.Fault{Op: 2, Kind: faultinject.Error},
			faultinject.Fault{Op: 4, Kind: faultinject.Truncate, Offset: 200},
			faultinject.Fault{Op: 6, Kind: faultinject.FlipBit, Offset: 80, Bit: 5},
		), faultinject.New()
	case 1:
		return faultinject.FromSeed(seed, 25, 0.25), faultinject.New(
			faultinject.Fault{Op: 3, Kind: faultinject.FlipBit, Offset: 40, Bit: 1},
			faultinject.Fault{Op: 7, Kind: faultinject.Error},
		)
	default:
		return faultinject.FromSeed(seed, 30, 0.3), faultinject.New()
	}
}

// injected reads how many faults of kind k plan p fired.
func injected(p *faultinject.Plan, k faultinject.Kind) uint64 {
	return p.Metrics().Counter(faultinject.MetricFired, telemetry.L("kind", k.String())).Value()
}

// nullBlobCache never holds anything: the delta base is always missing,
// so full-fetch members fall back to whole tarballs on the /updates
// route — the exact byte-for-byte fetch sequence the soak has always
// exercised its fault schedules against.
type nullBlobCache struct{}

func (nullBlobCache) Get(string) ([]byte, bool) { return nil, false }
func (nullBlobCache) Put(string, []byte)        {}

// chaosKillMember is the kill/restart machine of each release's fleet:
// a channel.Client with a persistent state dir, subscribing through the
// same faulty server as everyone else, whose process is killed by a
// crash schedule at a persistence crash point mid-sync. Each death
// discards the kernel and the client and "reboots" — a fresh boot, a
// new client over the surviving state dir, journal recovery — until
// the machine reaches the channel head. The member returns "" on
// success, with its fault stats; the invariants are byte-identity of
// every applied tarball, all probes fixed at head, and exact counter
// conservation across the reboots (applied == channel length, no
// update lost or double-counted).
func chaosKillMember(ri int, version, dir string, cves []*cvedb.CVE, published map[string][]byte) (string, []*faultinject.Plan) {
	serverPlan, clientPlan := memberPlans(ri, 3)
	srv := httptest.NewServer(faultinject.Handler(channel.NewServer(dir), serverPlan))
	defer srv.Close()

	// Stagger the death across releases so kills land at different
	// depths: inside the bind's journal compaction for release 0, deeper
	// into appends and blob renames for the rest.
	killPlan := crashpoint.NewPlan("", 2+2*ri)
	stateDir, err := os.MkdirTemp("", "chaos-kill-")
	if err != nil {
		return err.Error(), nil
	}
	defer os.RemoveAll(stateDir)
	reg := telemetry.NewRegistry()
	got := map[string][]byte{} // entry name -> bytes, across all lives
	ctx := context.Background()

	var k *kernel.Kernel
	pos, kills := 0, 0
	for life := 0; life < 12 && pos < len(cves); life++ {
		kk, err := kernel.Boot(cvedb.Tree(version))
		if err != nil {
			return fmt.Sprintf("boot (life %d): %v", life, err), nil
		}
		mgr := core.NewManager(kk)
		cl, err := channel.NewClient(channel.ClientConfig{
			Name: fmt.Sprintf("%s/member3", version),
			Transport: faultinject.WrapTransport(channel.NewHTTPTransport(srv.URL, channel.HTTPOptions{
				Timeout:    10 * time.Second,
				MaxRetries: 6,
				Backoff:    time.Millisecond,
				Seed:       int64(100*ri + 4),
			}), clientPlan),
			Registry: reg,
			StateDir: stateDir,
			Crash:    killPlan.Hook(),
			OnApplied: func(e channel.Entry, b []byte) error {
				got[e.Name] = append([]byte(nil), b...)
				return nil
			},
		})
		if err != nil {
			return fmt.Sprintf("client (life %d): %v", life, err), nil
		}
		var syncErr error
		death := crashpoint.Catch(func() {
			if _, err := cl.RestoreMachine(ctx, mgr, 0); err != nil {
				syncErr = err
				return
			}
			_, syncErr = cl.Sync(ctx)
		})
		pos = cl.Position()
		cl.Close()
		k = kk
		if death != nil {
			kills++
			continue // reboot: everything in memory is gone
		}
		if syncErr != nil {
			if _, ok := channel.IsPosition(syncErr); !ok {
				return fmt.Sprintf("sync failed un-gracefully (life %d): %v", life, syncErr), nil
			}
			// Graceful stop: the next life resumes from the journal.
		}
	}
	if pos != len(cves) {
		return fmt.Sprintf("kill member ended at %d of %d after %d kills", pos, len(cves), kills), nil
	}
	if kills == 0 {
		return "kill schedule never fired — the member proved nothing", nil
	}
	snap := reg.Snapshot()
	if a := snap.CounterFamily(channel.MetricApplied); a != uint64(len(cves)) {
		return fmt.Sprintf("applied counter %d across %d kills, want exactly %d", a, kills, len(cves)), nil
	}
	if r := snap.CounterFamily(channel.MetricRecoveries); r < uint64(kills) {
		return fmt.Sprintf("%d recoveries recorded for %d kills", r, kills), nil
	}
	for _, c := range cves {
		code, err := chaosProbe(k, c)
		if err != nil {
			return fmt.Sprintf("probe %s: %v", c.ID, err), nil
		}
		if code != c.Probe.FixedResult {
			return fmt.Sprintf("at head after %d kills: probe %s = %d, want fixed %d", kills, c.ID, code, c.Probe.FixedResult), nil
		}
	}
	if bad, err := k.Call("stress_main", 50); err != nil || bad != 0 {
		return fmt.Sprintf("stress at head: %d, %v", bad, err), nil
	}
	for name, b := range got {
		if !bytes.Equal(b, published[name]) {
			return fmt.Sprintf("update %s applied from bytes that differ from the published tarball", name), nil
		}
	}
	return "", []*faultinject.Plan{serverPlan, clientPlan}
}

// TestChaosSoakHTTPFleet is the acceptance soak for the networked
// channel: all four releases' channels, a faulty server and faulty
// clients per machine, and machine-state invariants checked end to end.
func TestChaosSoakHTTPFleet(t *testing.T) {
	type memberResult struct {
		name   string
		plans  []*faultinject.Plan
		errmsg string
	}
	const membersPerRelease = 4 // member 3 is the kill/restart machine
	before := telemetry.Default().Snapshot()
	var (
		wg              sync.WaitGroup
		mu              sync.Mutex
		results         []memberResult
		expectedApplied uint64
	)
	for ri, version := range cvedb.Versions {
		cves := cvedb.ForVersion(version)
		dir := t.TempDir()
		pub, err := channel.NewPublisher(dir, cvedb.Tree(version))
		if err != nil {
			t.Fatal(err)
		}
		published := map[string][]byte{} // entry name -> tarball bytes
		for _, c := range cves {
			if _, err := pub.Publish("ksplice-"+c.ID, c.ID, c.Patch()); err != nil {
				t.Fatalf("%s: publish %s: %v", version, c.ID, err)
			}
		}
		m, err := channel.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Updates) != len(cves) {
			t.Fatalf("%s: %d of %d updates published", version, len(m.Updates), len(cves))
		}
		for _, e := range m.Updates {
			b, err := os.ReadFile(filepath.Join(dir, e.File))
			if err != nil {
				t.Fatal(err)
			}
			published[e.Name] = b
		}

		for mi := 0; mi < membersPerRelease; mi++ {
			expectedApplied += uint64(len(cves))
			wg.Add(1)
			go func(ri, mi int, version, dir string, cves []*cvedb.CVE) {
				defer wg.Done()
				res := memberResult{name: fmt.Sprintf("%s/member%d", version, mi)}
				fail := func(format string, args ...any) {
					res.errmsg = fmt.Sprintf(format, args...)
					mu.Lock()
					results = append(results, res)
					mu.Unlock()
				}
				if mi == 3 {
					res.errmsg, res.plans = chaosKillMember(ri, version, dir, cves, published)
					mu.Lock()
					results = append(results, res)
					mu.Unlock()
					return
				}
				serverPlan, clientPlan := memberPlans(ri, mi)
				srv := httptest.NewServer(faultinject.Handler(channel.NewServer(dir), serverPlan))
				defer srv.Close()

				k, err := kernel.Boot(cvedb.Tree(version))
				if err != nil {
					fail("boot: %v", err)
					return
				}
				mgr := core.NewManager(k)
				tr := faultinject.WrapTransport(channel.NewHTTPTransport(srv.URL, channel.HTTPOptions{
					Timeout:    10 * time.Second,
					MaxRetries: 6,
					Backoff:    time.Millisecond,
					Seed:       int64(100*ri + mi + 1),
				}), clientPlan)

				var got [][]byte
				var names []string
				cfg := channel.ClientConfig{
					OnApplied: func(e channel.Entry, b []byte) error {
						got = append(got, append([]byte(nil), b...))
						names = append(names, e.Name)
						return nil
					},
				}
				if mi < 2 {
					// Full-fetch members: no delta bases, so their fault
					// schedules align with manifest and tarball operations
					// only.
					cfg.Blobs = nullBlobCache{}
				}
				applied, err := channel.SyncOnce(context.Background(), tr, mgr, 0, cfg)
				pos := len(applied)
				if err != nil {
					pe, ok := channel.IsPosition(err)
					if !ok {
						fail("subscribe failed un-gracefully: %v", err)
						return
					}
					if pe.Position != pos {
						fail("PositionError says %d, %d updates applied", pe.Position, pos)
						return
					}
				}
				// Invariant: no partially-applied update, ever. The manager's
				// applied count is exactly the reported position, and the
				// clean prefix of probes is fixed while the rest are still
				// vulnerable.
				if len(mgr.Applied()) != pos {
					fail("manager runs %d updates at position %d", len(mgr.Applied()), pos)
					return
				}
				for i, c := range cves {
					want := c.Probe.VulnResult
					if i < pos {
						want = c.Probe.FixedResult
					}
					gotCode, err := chaosProbe(k, c)
					if err != nil {
						fail("probe %s: %v", c.ID, err)
						return
					}
					if gotCode != want {
						fail("position %d: probe %s = %d, want %d", pos, c.ID, gotCode, want)
						return
					}
				}
				if bad, err := k.Call("stress_main", 50); err != nil || bad != 0 {
					fail("stress at position %d: %d, %v", pos, bad, err)
					return
				}
				// Graceful stop: resume over a clean transport reaches the
				// head. (The faulty run already proved the failure handling.)
				if pos < len(cves) {
					more, err := channel.SyncOnce(context.Background(), channel.NewDirTransport(dir), mgr, pos, channel.ClientConfig{OnApplied: cfg.OnApplied})
					if err != nil {
						fail("resume from %d: %v", pos, err)
						return
					}
					pos += len(more)
				}
				if pos != len(cves) {
					fail("fleet member ended at %d of %d", pos, len(cves))
					return
				}
				// Every byte the machine applied is identical to what the
				// publisher wrote.
				for i, b := range got {
					if !bytes.Equal(b, published[names[i]]) {
						fail("update %s applied from bytes that differ from the published tarball", names[i])
						return
					}
				}
				for _, c := range cves {
					gotCode, err := chaosProbe(k, c)
					if err != nil {
						fail("probe %s: %v", c.ID, err)
						return
					}
					if gotCode != c.Probe.FixedResult {
						fail("at head: probe %s = %d, want fixed %d", c.ID, gotCode, c.Probe.FixedResult)
						return
					}
				}
				if bad, err := k.Call("stress_main", 100); err != nil || bad != 0 {
					fail("stress at head: %d, %v", bad, err)
					return
				}
				res.plans = []*faultinject.Plan{serverPlan, clientPlan}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}(ri, mi, version, dir, cves)
		}
	}
	wg.Wait()

	// Fleet-wide fault totals, summed over this soak's own plans.
	var plans []*faultinject.Plan
	for _, r := range results {
		if r.errmsg != "" {
			t.Errorf("%s: %s", r.name, r.errmsg)
			continue
		}
		plans = append(plans, r.plans...)
	}
	fired := func(k faultinject.Kind) (n uint64) {
		for _, p := range plans {
			n += injected(p, k)
		}
		return n
	}
	if t.Failed() {
		return
	}
	// The soak must actually have exercised every fault class somewhere in
	// the fleet, or it proves nothing.
	for _, k := range []faultinject.Kind{faultinject.Error, faultinject.Truncate, faultinject.FlipBit, faultinject.Delay} {
		if fired(k) == 0 {
			t.Errorf("fleet soak never injected a %v fault", k)
		}
	}

	// Telemetry invariants, as deltas over the process-wide registry.
	// Every corruption that reaches a subscriber is caught by the
	// integrity check exactly once, so refetches are bounded by the
	// corrupting fault classes actually fired; retries and Range resumes
	// must both have happened for the soak to have proven anything; and
	// applies are conserved — every member ends at its channel head, so
	// the fleet-wide applied counter moves by exactly the sum of channel
	// lengths.
	after := telemetry.Default().Snapshot()
	delta := func(id string) uint64 { return after.Counter(id) - before.Counter(id) }
	refetches := delta("gosplice_channel_integrity_refetches_total")
	corruptions := fired(faultinject.FlipBit) + fired(faultinject.Truncate)
	if refetches == 0 {
		t.Errorf("telemetry: no integrity refetches recorded, but corrupting faults fired")
	}
	if refetches > corruptions {
		t.Errorf("telemetry: %d integrity refetches exceed the %d corrupting faults fired", refetches, corruptions)
	}
	if delta("gosplice_channel_client_retries_total") == 0 {
		t.Errorf("telemetry: no transport retries recorded despite injected errors")
	}
	if delta("gosplice_channel_client_resumes_total") == 0 {
		t.Errorf("telemetry: no Range resumes recorded despite truncated bodies")
	}
	if got := delta("gosplice_channel_updates_applied_total"); got != expectedApplied {
		t.Errorf("telemetry: applied counter moved %d, fleet applied %d updates", got, expectedApplied)
	}
	if delta("gosplice_channel_subscribe_degraded_total") < uint64(len(cvedb.Versions)) {
		t.Errorf("telemetry: fewer graceful degradations than hostile-client members")
	}
	// Delta invariants: the member-2 subscribers reconstructed tarballs
	// from deltas over the blob route; the null-cache members exercised
	// the missing-base full-fetch fallback on every advertised delta.
	if delta("gosplice_channel_delta_applied_total") == 0 {
		t.Errorf("telemetry: no delta reconstructions despite delta subscribers")
	}
	if delta("gosplice_channel_delta_fallback_full_total") == 0 {
		t.Errorf("telemetry: no full-fetch fallbacks despite members with no delta bases")
	}
	if delta("gosplice_channel_bytes_over_wire_total") == 0 {
		t.Errorf("telemetry: wire byte counter never moved")
	}
	if d := after.Counter(`gosplice_channel_requests_total{code="200",route="blob"}`) -
		before.Counter(`gosplice_channel_requests_total{code="200",route="blob"}`); d == 0 {
		t.Errorf("telemetry: no blob-route responses despite delta subscribers")
	}
	reqDelta := after.CounterFamily("gosplice_channel_requests_total") - before.CounterFamily("gosplice_channel_requests_total")
	if reqDelta == 0 {
		t.Errorf("telemetry: server request counters never moved")
	}
	if d := after.Counter(`gosplice_channel_requests_total{code="206",route="update"}`) -
		before.Counter(`gosplice_channel_requests_total{code="206",route="update"}`); d == 0 {
		t.Errorf("telemetry: no 206 responses counted despite Range resumes")
	}
	var faults, ops uint64
	for _, p := range plans {
		st := p.Metrics().Snapshot()
		faults += st.CounterFamily(faultinject.MetricFired)
		ops += st.Counter(faultinject.MetricOps)
	}
	t.Logf("fleet of %d machines survived %d injected faults over %d operations (%d refetches, %d server requests)",
		len(results), faults, ops, refetches, reqDelta)
}
