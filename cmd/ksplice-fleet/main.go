// Command ksplice-fleet drives a simulated fleet of subscriber machines
// through an update channel in canary rings — the deployment lifecycle a
// real Ksplice operator runs: patch 1% of machines first, watch their
// health, promote to 10%, watch again, then everyone. When a ring
// degrades past the health policy, promotion halts and every patched
// machine is rolled back to its base via undo.
//
//	ksplice-fleet                              # 512 machines, all releases
//	ksplice-fleet -clients 128 -seed 7
//	ksplice-fleet -burst-ring 2                # inject a fault burst into ring 2
//	ksplice-fleet -joins 8 -leaves 4 -slow-every 16
//	ksplice-fleet -kill-every 8                # kill every 8th machine mid-sync; it reboots and recovers
//	ksplice-fleet -rings 0.02,0.25,1.0 -max-unhealthy 0.05
//
// Everything runs in one process: per-release channel servers on
// loopback HTTP, one machine per channel.Client with its own cloned
// kernel and telemetry registry, and a merged /fleet/health view (the
// URL is printed at startup) that both the operator and the promotion
// gate watch.
//
// Exit status: 0 when the rollout converges, 3 when it halts on a
// failed health gate (with the fleet rolled back), 1 on hard errors.
// With -expect the status instead reports whether the outcome matched,
// so a fault-burst smoke can assert the halt happened. A bad command
// line (an unknown -expect) exits 2 before anything is published.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"gosplice/internal/atomicfile"
	"gosplice/internal/channel"
	"gosplice/internal/cli"
	"gosplice/internal/faultinject"
	"gosplice/internal/fleet"
)

// cpEvents marks the -events-out write, a report the next run rewrites:
// a cache point, no fsync.
var cpEvents = atomicfile.CachePoint("cli.events")

func main() {
	rt := cli.New("ksplice-fleet")
	clients := flag.Int("clients", 512, "fleet size")
	releases := flag.String("releases", "", "comma-separated base releases (default: every corpus release)")
	rings := flag.String("rings", "0.01,0.10,1.0", "cumulative ring fractions")
	workers := flag.Int("workers", 16, "concurrent machine syncs")
	seed := flag.Int64("seed", 1, "ring-assignment and jitter seed")
	burstRing := flag.Int("burst-ring", 0, "inject a hard fault burst into this ring (1-based; 0 = none)")
	faultEvery := flag.Int("fault-every", 0, "give every Nth machine a recoverable corruption plan (0 = none)")
	killEvery := flag.Int("kill-every", 0, "kill every Nth machine at a persistence crash point mid-sync and reboot it from its state dir (0 = none)")
	stateRoot := flag.String("state-root", "", "root directory for killable machines' state dirs (default: under -work)")
	slowEvery := flag.Int("slow-every", 0, "make every Nth machine slow (0 = none)")
	joins := flag.Int("joins", 0, "machines that join mid-rollout before the final ring")
	leaves := flag.Int("leaves", 0, "final-ring machines that power off after their first update")
	maxUnhealthy := flag.Float64("max-unhealthy", 0.10, "max unhealthy fraction per ring before halting")
	workDir := flag.String("work", "", "directory for published channels (default: a temp dir)")
	expect := flag.String("expect", "", "assert the outcome: \"converge\" or \"halt\"")
	eventsOut := flag.String("events-out", "", "write the rollout event timeline to this file as JSONL on exit")
	quiet := flag.Bool("q", false, "suppress rollout narration")
	flag.Parse()
	rt.Start()
	switch *expect {
	case "", "converge", "halt":
	default:
		rt.Usage(fmt.Errorf("bad -expect %q (want converge or halt)", *expect))
	}

	cfg := fleet.Config{
		Clients:          *clients,
		Workers:          *workers,
		Seed:             *seed,
		MaxUnhealthyFrac: *maxUnhealthy,
		BurstRing:        *burstRing,
		SlowEvery:        *slowEvery,
		Joins:            *joins,
		Leaves:           *leaves,
		KillEvery:        *killEvery,
		StateRoot:        *stateRoot,
		WorkDir:          *workDir,
	}
	if *releases != "" {
		cfg.Releases = strings.Split(*releases, ",")
	}
	for _, f := range strings.Split(*rings, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			rt.Fatal(fmt.Errorf("bad -rings fraction %q", f))
		}
		cfg.Rings = append(cfg.Rings, v)
	}
	if *faultEvery > 0 {
		n := *faultEvery
		cfg.FaultPlan = func(i int) *faultinject.Plan {
			if i%n != n-1 {
				return nil
			}
			// Recoverable corruption only: the digest check refetches
			// through it, so these machines are noisy, not unhealthy.
			return faultinject.New(
				faultinject.Fault{Op: 3, Kind: faultinject.FlipBit, Offset: 64, Bit: 3},
				faultinject.Fault{Op: 6, Kind: faultinject.Truncate, Offset: 512},
			)
		}
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := rollout(rt, cfg)
	if err != nil {
		rt.Fatal(err)
	}
	if *eventsOut != "" {
		if err := writeEvents(*eventsOut, res.Events); err != nil {
			rt.Fatal(fmt.Errorf("events out: %w", err))
		}
	}

	for _, rr := range res.Rings {
		verdict := "promoted"
		if !rr.Promoted {
			verdict = "HALTED"
		}
		fmt.Printf("ring %d: %3d machines, %3d synced, %2d unhealthy, %8s  %s\n",
			rr.Ring, rr.Members, rr.Synced, rr.Unhealthy,
			rr.Duration.Round(time.Millisecond), verdict)
	}
	fmt.Printf("fleet: %d machines, %d releases, %d sources reporting, %d updates applied, %.1f MiB over wire, %s total\n",
		res.Clients+res.Joined, len(res.Releases), res.Health.Sources,
		res.Health.Applied, float64(res.BytesOverWire)/(1<<20),
		time.Since(start).Round(time.Millisecond))
	if res.Joined > 0 || res.Left > 0 {
		fmt.Printf("fleet: %d joined mid-rollout, %d left\n", res.Joined, res.Left)
	}
	if res.Kills > 0 || res.Reboots > 0 {
		fmt.Printf("fleet: %d machines killed mid-sync, %d rebooted and recovered (%d journal replays, %d torn states)\n",
			res.Kills, res.Reboots, res.Health.JournalReplays, res.Health.TornDetected)
	}
	if res.Halted {
		fmt.Printf("fleet: halted at ring %d after %s; rolled back %d updates (%d failures) in %s\n",
			res.HaltedRing, res.TimeToHalt.Round(time.Millisecond),
			res.RolledBack, res.RollbackFailures,
			res.TimeToRollback.Round(time.Millisecond))
	} else {
		fmt.Println("fleet: rollout converged")
	}

	code := 0
	switch *expect {
	case "":
		if res.Halted {
			code = 3
		}
	case "converge":
		if res.Halted {
			rt.Fatal(fmt.Errorf("expected convergence, rollout halted at ring %d", res.HaltedRing))
		}
	case "halt":
		if !res.Halted {
			rt.Fatal(fmt.Errorf("expected a halt, rollout converged"))
		}
		if res.RollbackFailures > 0 {
			rt.Fatal(fmt.Errorf("halt rolled back with %d failures", res.RollbackFailures))
		}
	}
	rt.Exit(code)
}

// rollout runs cfg's canary rollout to its end, in a temp work dir it
// removes afterwards when cfg names none, and hands rt the merged fleet
// trace — every member's pushed spans plus this process's own (rollout
// root, server handlers), one Chrome process lane each — for -trace-out.
func rollout(rt *cli.Runtime, cfg fleet.Config) (*fleet.Result, error) {
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "ksplice-fleet-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WorkDir = dir
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	rt.SetTrace(o.Aggregator().WriteMergedTrace)
	fmt.Printf("fleet health: %s\n", o.HealthURL())
	return o.Run(ctx)
}

// writeEvents journals the rollout timeline (Result.Events) as JSONL,
// one event per line, oldest first.
func writeEvents(path string, events []channel.FleetEvent) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return atomicfile.Write(path, buf.Bytes(), 0o644, nil, cpEvents)
}
