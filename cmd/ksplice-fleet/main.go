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
// so a fault-burst smoke can assert the halt happened.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/faultinject"
	"gosplice/internal/fleet"
	"gosplice/internal/telemetry"
)

func main() {
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
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this loopback address during the rollout")
	traceOut := flag.String("trace-out", "", "write the merged fleet Chrome trace (member + server spans) to this file on exit")
	eventsOut := flag.String("events-out", "", "write the rollout event timeline to this file as JSONL on exit")
	quiet := flag.Bool("q", false, "suppress rollout narration")
	flag.Parse()

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
	}
	if *releases != "" {
		cfg.Releases = strings.Split(*releases, ",")
	}
	for _, f := range strings.Split(*rings, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			fatalf("bad -rings fraction %q", f)
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
	if *workDir == "" {
		dir, err := os.MkdirTemp("", "ksplice-fleet-")
		if err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(dir)
		*workDir = dir
	}
	cfg.WorkDir = *workDir

	if bound, stopMetrics, err := telemetry.ServeLoopback(*metricsAddr); err != nil {
		fatalf("%v", err)
	} else if bound != "" {
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	o, err := fleet.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer o.Close()
	fmt.Printf("fleet health: %s\n", o.HealthURL())

	res, err := o.Run(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	if *traceOut != "" {
		// The merged fleet trace: every member's pushed spans plus the
		// orchestrator process's own (rollout root, server handlers),
		// one Chrome process lane each.
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := o.Aggregator().WriteMergedTrace(f); err != nil {
			fatalf("trace out: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("trace out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "fleet: merged trace written to %s (trace id %s)\n", *traceOut, res.TraceID)
	}
	if *eventsOut != "" {
		if err := writeEvents(*eventsOut, res.Events); err != nil {
			fatalf("events out: %v", err)
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

	switch *expect {
	case "":
		if res.Halted {
			os.Exit(3)
		}
	case "converge":
		if res.Halted {
			fatalf("expected convergence, rollout halted at ring %d", res.HaltedRing)
		}
	case "halt":
		if !res.Halted {
			fatalf("expected a halt, rollout converged")
		}
		if res.RollbackFailures > 0 {
			fatalf("halt rolled back with %d failures", res.RollbackFailures)
		}
	default:
		fatalf("bad -expect %q (want converge or halt)", *expect)
	}
}

// writeEvents journals the rollout timeline (Result.Events) as JSONL,
// one event per line, oldest first.
func writeEvents(path string, events []channel.FleetEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ksplice-fleet: "+format+"\n", args...)
	os.Exit(1)
}
