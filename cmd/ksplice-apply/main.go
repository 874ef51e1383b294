// Command ksplice-apply applies a hot update tarball to a simulated
// machine:
//
//	ksplice-apply -state machine.json ksplice-2006-2451.tar
//
// The machine (a deterministic simulation persisted as its boot source
// plus applied-update list) is replayed, the new update is spliced in
// under stop_machine with full run-pre matching, the stress workload is
// run as a health check, and the state file is extended.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gosplice/internal/core"
	"gosplice/internal/simstate"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

func main() {
	statePath := flag.String("state", "machine.json", "machine state file")
	trust := flag.Bool("trust-symtab", false, "UNSAFE: skip run-pre matching (ablation mode)")
	stress := flag.Int("stress", 100, "post-update stress workload rounds (0 to skip)")
	applyAttempts := flag.Int("apply-attempts", 0, "quiescence attempts per update (0 = default)")
	applyDelay := flag.Duration("apply-retry-delay", 0, "delay between quiescence attempts (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist build artifacts in this directory (shared across processes)")
	cacheGC := flag.Int64("cache-gc-bytes", 0, "sweep the on-disk artifact cache down to this many bytes before running (0 = no sweep)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address while running (host:0 picks a port)")
	traceOut := flag.String("trace-out", "", "write recorded spans as a Chrome trace to this file on exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: ksplice-apply [-state file] update.tar"))
	}
	tarPath := flag.Arg(0)

	if bound, _, err := telemetry.ServeLoopback(*metricsAddr); err != nil {
		fatal(err)
	} else if bound != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", bound)
	}
	defer func() {
		if err := telemetry.WriteChromeTraceFile(*traceOut, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ksplice-apply:", err)
		}
	}()

	if err := srctree.UseDiskStore(*cacheDir, *cacheGC); err != nil {
		fatal(err)
	}
	apply := core.ApplyOptions{MaxAttempts: *applyAttempts, RetryDelay: *applyDelay}

	st, err := simstate.Load(*statePath)
	if err != nil {
		fatal(err)
	}
	// The replay of already-applied updates always runs fully checked;
	// -trust-symtab (the ablation mode) affects only the new update.
	k, mgr, err := st.Replay(apply)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(tarPath)
	if err != nil {
		fatal(err)
	}
	u, err := core.ReadTar(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	if u.Compiler != k.Build.Options.Version {
		fmt.Fprintf(os.Stderr, "ksplice-apply: warning: update built with %q, kernel with %q;\n",
			u.Compiler, k.Build.Options.Version)
		fmt.Fprintf(os.Stderr, "  run-pre matching will abort on any resulting code difference.\n")
	}

	newApply := apply
	newApply.TrustSymtab = *trust
	a, err := mgr.Apply(u, newApply)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Done!\n")
	fmt.Printf("  update %s applied in %d attempt(s); machine stopped for %v\n",
		u.Name, a.Attempts, a.Pause)
	fmt.Printf("  %d function(s) redirected:\n", len(a.Trampolines))
	for _, tr := range a.Trampolines {
		fmt.Printf("    %-24s %#x -> %#x (%s)\n", tr.Name, tr.Addr, tr.Target, tr.Unit)
	}
	fmt.Printf("  primary module %s: %d bytes; helper objects: %d bytes (discarded after matching)\n",
		a.ModuleName, a.PrimaryBytes, a.HelperBytes)

	if *stress > 0 {
		bad, err := k.Call("stress_main", int64(*stress))
		if err != nil {
			fatal(fmt.Errorf("stress workload: %w", err))
		}
		if bad != 0 {
			fatal(fmt.Errorf("stress workload reported %d inconsistencies", bad))
		}
		fmt.Printf("  stress workload: %d rounds clean\n", *stress)
	}

	rel, err := filepath.Rel(filepath.Dir(*statePath), tarPath)
	if err != nil {
		rel = tarPath
	}
	st.Updates = append(st.Updates, rel)
	if err := st.Save(*statePath); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksplice-apply:", err)
	os.Exit(1)
}
