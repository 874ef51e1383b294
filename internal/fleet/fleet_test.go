package fleet

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/cvedb"
	"gosplice/internal/faultinject"
)

// All fleet tests share one set of published channels: publishing the
// full corpus is the expensive part, and PublishChannel skips work when
// the directory is already at head.
var channelRoot string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fleet-channels-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	channelRoot = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestFleetRolloutConverges: a mixed-release fleet with mild seeded
// faults, slow machines, a mid-rollout join, and a mid-rollout leave
// still promotes through every ring, and every machine that stayed ends
// at its channel head.
func TestFleetRolloutConverges(t *testing.T) {
	o, err := New(Config{
		Clients: 24,
		WorkDir: channelRoot,
		Workers: 8,
		Seed:    7,
		FaultPlan: func(i int) *faultinject.Plan {
			if i%6 == 2 {
				// A recoverable nuisance: corrupted and truncated payloads
				// plus a stall. The end-to-end digest check catches the
				// garbage and refetches (the refetch is a fresh, clean plan
				// op); nothing here is fatal, so the rollout must converge.
				return faultinject.New(
					faultinject.Fault{Op: 3, Kind: faultinject.FlipBit, Offset: 64, Bit: 3},
					faultinject.Fault{Op: 6, Kind: faultinject.Truncate, Offset: 512},
					faultinject.Fault{Op: 9, Kind: faultinject.Delay, Sleep: time.Millisecond},
				)
			}
			return nil
		},
		SlowEvery: 8,
		Joins:     2,
		Leaves:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	res, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatalf("healthy rollout halted at ring %d: %+v", res.HaltedRing, res.Rings)
	}
	if len(res.Rings) != 3 {
		t.Fatalf("rollout covered %d rings, want 3", len(res.Rings))
	}
	if res.Joined != 2 || res.Left != 1 {
		t.Errorf("joined=%d left=%d, want 2 and 1", res.Joined, res.Left)
	}
	// Everyone still in the fleet reached their channel head: sources =
	// clients + joins - leaves, and the health view's position gauges sum
	// to the per-release heads.
	wantSources := 24 + res.Joined - res.Left
	if res.Health.Sources != wantSources {
		t.Errorf("health view has %d sources, want %d", res.Health.Sources, wantSources)
	}
	synced := 0
	for _, rr := range res.Rings {
		synced += rr.Synced
	}
	if synced != wantSources {
		t.Errorf("%d members synced to head, want %d", synced, wantSources)
	}
	for _, row := range res.Health.Clients {
		if row.StressFailures != 0 {
			t.Errorf("%s reports %d stress failures in a healthy rollout", row.Source, row.StressFailures)
		}
	}
	if res.Health.Applied == 0 || res.BytesOverWire == 0 {
		t.Errorf("fleet applied %d updates over %d wire bytes; both must be nonzero",
			res.Health.Applied, res.BytesOverWire)
	}
}

// TestFleetKillRestartConverges: every third machine keeps a state dir
// and is killed by a crash schedule at a persistence crash point
// mid-sync, rebooted onto a fresh kernel, and recovered through its
// apply journal — and the rollout still promotes through every ring
// with every machine at head. Counter conservation across the reboots
// is the core assertion: each machine's cumulative applied counter
// equals its final position, even though some applies were counted
// before a death and reconciled after.
func TestFleetKillRestartConverges(t *testing.T) {
	o, err := New(Config{
		Clients:   12,
		WorkDir:   channelRoot,
		StateRoot: t.TempDir(),
		Workers:   6,
		Seed:      5,
		KillEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	res, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatalf("kill/restart rollout halted at ring %d: %+v", res.HaltedRing, res.Rings)
	}
	if res.Kills != 4 {
		t.Errorf("kills = %d, want 4 (every third of 12 machines)", res.Kills)
	}
	if res.Reboots != res.Kills {
		t.Fatalf("reboots = %d but kills = %d — a machine failed to come back", res.Reboots, res.Kills)
	}
	synced := 0
	for _, rr := range res.Rings {
		synced += rr.Synced
	}
	if synced != 12 {
		t.Fatalf("%d of 12 members synced to head", synced)
	}
	// Recovery is visible on /fleet/health: one recovery per reboot, and
	// the deaths that landed mid-apply show up as torn state resolved by
	// journal replays.
	if res.Health.Recoveries != uint64(res.Reboots) {
		t.Errorf("health view shows %d recoveries, want %d", res.Health.Recoveries, res.Reboots)
	}
	if res.Health.JournalReplays == 0 && res.Health.TornDetected == 0 {
		t.Error("no journal replays or torn-state detections across 4 kills")
	}
	// Conservation: no machine lost or double-counted an apply across
	// its death and reboot.
	for _, row := range res.Health.Clients {
		if row.Applied != uint64(row.Position) {
			t.Errorf("%s: applied=%d position=%d — counter not conserved across reboot",
				row.Source, row.Applied, row.Position)
		}
		if row.Degraded != 0 {
			t.Errorf("%s degraded %d times — kills must not count as degradation", row.Source, row.Degraded)
		}
	}
}

// TestFleetBurstHaltsWithKills: the burst halt still halts and rolls
// back cleanly when the fleet is full of machines dying and recovering
// — a recovered machine is rolled back like any other, journal and all.
func TestFleetBurstHaltsWithKills(t *testing.T) {
	o, err := New(Config{
		Clients:   24,
		WorkDir:   channelRoot,
		StateRoot: t.TempDir(),
		Workers:   8,
		Seed:      11,
		BurstRing: 2,
		KillEvery: 1, // everyone is killable
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	res, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.HaltedRing != 2 {
		t.Fatalf("rollout did not halt at ring 2: halted=%v ring=%d", res.Halted, res.HaltedRing)
	}
	if res.Kills == 0 {
		t.Fatal("no machine died before the halt — the kill schedule never fired")
	}
	if res.Reboots != res.Kills {
		t.Fatalf("reboots = %d but kills = %d", res.Reboots, res.Kills)
	}
	if res.RollbackFailures != 0 {
		t.Fatalf("%d machines failed to roll back", res.RollbackFailures)
	}
	for _, row := range res.Health.Clients {
		if row.Position != 0 {
			t.Errorf("%s still at position %d after fleet rollback", row.Source, row.Position)
		}
	}
}

// TestFleetBurstHaltsAndRollsBack is the acceptance scenario: a fault
// burst lands in ring 2, the ring fails its health gate, promotion
// halts before ring 3 ever syncs, and every patched machine in rings
// 1-2 is rolled back to base via undo — all of it visible in the final
// /fleet/health view.
func TestFleetBurstHaltsAndRollsBack(t *testing.T) {
	const clients = 64
	o, err := New(Config{
		Clients:   clients,
		WorkDir:   channelRoot,
		Workers:   8,
		Seed:      11,
		BurstRing: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	res, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.HaltedRing != 2 {
		t.Fatalf("rollout did not halt at ring 2: halted=%v ring=%d (%+v)",
			res.Halted, res.HaltedRing, res.Rings)
	}
	if len(res.Rings) != 2 {
		t.Fatalf("ring 3 ran after the halt: %d ring results", len(res.Rings))
	}
	if res.Rings[0].Promoted != true || res.Rings[1].Promoted != false {
		t.Fatalf("ring promotion sequence wrong: %+v", res.Rings)
	}
	// Ring 1 synced fully before the burst, so there was real patched
	// state to pull back out.
	if res.Rings[0].Synced != res.Rings[0].Members {
		t.Errorf("ring 1 synced %d of %d before the burst", res.Rings[0].Synced, res.Rings[0].Members)
	}
	if res.RolledBack == 0 {
		t.Fatal("halt performed no rollback undos")
	}
	if res.RollbackFailures != 0 {
		t.Fatalf("%d machines failed to roll back", res.RollbackFailures)
	}
	if res.TimeToHalt <= 0 || res.TimeToRollback <= 0 {
		t.Errorf("halt/rollback timings not recorded: %v / %v", res.TimeToHalt, res.TimeToRollback)
	}
	// The rollback undid exactly what rings 1-2 applied: every reporting
	// machine is back at position 0.
	for _, row := range res.Health.Clients {
		if row.Position != 0 {
			t.Errorf("%s still at position %d after fleet rollback", row.Source, row.Position)
		}
	}
	// The burst is visible in the view: degraded members reported, and
	// the cumulative applied counter shows ring 1's work happened.
	if res.Health.Degraded == 0 {
		t.Error("health view shows no degraded members despite the burst")
	}
	if res.Health.Applied == 0 {
		t.Error("health view shows no applies despite ring 1 syncing")
	}
	// The full corpus never reached the whole fleet: the halt stopped
	// ring 3 outright.
	var headSum uint64
	for _, rel := range res.Releases {
		headSum += uint64(len(cvedb.ForVersion(rel)))
	}
	if res.Health.Applied >= headSum*clients/2 {
		t.Errorf("fleet applied %d updates — the halt cannot have stopped ring 3", res.Health.Applied)
	}
	// The event timeline tells the same story in order: the failed gate
	// is recorded before the rollback, and both carry the rollout's
	// trace id so a post-mortem can jump straight into the merged trace.
	if res.TraceID == "" {
		t.Fatal("rollout recorded no trace id")
	}
	gateFailAt, rollbackAt := -1, -1
	for i, ev := range res.Events {
		switch ev.Type {
		case channel.EventGateFail:
			if gateFailAt < 0 {
				gateFailAt = i
			}
			if ev.Ring != 2 {
				t.Errorf("gate_fail on ring %d, want 2", ev.Ring)
			}
			if ev.TraceID != res.TraceID {
				t.Errorf("gate_fail trace id %q, want rollout's %q", ev.TraceID, res.TraceID)
			}
		case channel.EventRollback:
			rollbackAt = i
			if ev.TraceID != res.TraceID {
				t.Errorf("rollback trace id %q, want rollout's %q", ev.TraceID, res.TraceID)
			}
		case channel.EventPromote:
			if ev.Ring != 1 {
				t.Errorf("promote on ring %d, want only ring 1 before the halt", ev.Ring)
			}
		}
	}
	if gateFailAt < 0 || rollbackAt < 0 || rollbackAt < gateFailAt {
		t.Fatalf("timeline lacks gate_fail -> rollback (gate_fail at %d, rollback at %d): %+v",
			gateFailAt, rollbackAt, res.Events)
	}
}

// TestFleetRejectsBurstRingOutOfRange: a burst aimed at a ring the
// rollout does not have is a configuration error, not a silently
// burst-free run that converges.
func TestFleetRejectsBurstRingOutOfRange(t *testing.T) {
	for _, ring := range []int{-1, 4} {
		o, err := New(Config{Clients: 8, WorkDir: channelRoot, BurstRing: ring})
		if err == nil {
			o.Close()
			t.Errorf("BurstRing %d accepted with the default 3 rings", ring)
		}
	}
}
