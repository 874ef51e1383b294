// Command simboot boots a simulated kernel from one of the corpus
// releases and writes a machine state file that the ksplice-* tools
// operate on.
//
//	simboot -version sim-2.6.16-deb -state machine.json
//	simboot -list
//	simboot -version sim-2.6.16-deb -state machine.json -probe c2006_2451_probe
package main

import (
	"flag"
	"fmt"
	"os"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/simstate"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

func main() {
	version := flag.String("version", cvedb.Versions[1], "kernel release to boot")
	statePath := flag.String("state", "machine.json", "machine state file to write")
	list := flag.Bool("list", false, "list available kernel releases and exit")
	probe := flag.String("probe", "", "after boot, run this kernel function and print its result")
	uid := flag.Int("uid", 0, "credential for -probe")
	cacheDir := flag.String("cache-dir", "", "persist build artifacts in this directory (shared across processes)")
	cacheGC := flag.Int64("cache-gc-bytes", 0, "sweep the on-disk artifact cache down to this many bytes before running (0 = no sweep)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address while running (host:0 picks a port)")
	traceOut := flag.String("trace-out", "", "write recorded spans as a Chrome trace to this file on exit")
	flag.Parse()

	if bound, _, err := telemetry.ServeLoopback(*metricsAddr); err != nil {
		fatal(err)
	} else if bound != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", bound)
	}
	defer func() {
		if err := telemetry.WriteChromeTraceFile(*traceOut, nil); err != nil {
			fmt.Fprintln(os.Stderr, "simboot:", err)
		}
	}()

	if err := srctree.UseDiskStore(*cacheDir, *cacheGC); err != nil {
		fatal(err)
	}

	if *list {
		for _, v := range cvedb.Versions {
			fmt.Println(v)
		}
		return
	}

	st, err := simstate.New(*version)
	if err != nil {
		fatal(err)
	}
	k, _, err := st.Replay(core.ApplyOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("booted %s: image %#x..%#x, %d units\n",
		k.Version, k.Image.Base, k.Image.End(), len(k.Build.Objects))
	amb := k.Syms.Ambiguity()
	fmt.Printf("kallsyms: %d symbols, %d ambiguous (%.1f%%), %d/%d units with ambiguity\n",
		amb.TotalSymbols, amb.AmbiguousSymbols,
		100*float64(amb.AmbiguousSymbols)/float64(amb.TotalSymbols),
		amb.UnitsWithAmbig, amb.TotalUnits)
	fmt.Printf("console: %q\n", k.Console())

	if *probe != "" {
		t, err := k.CallAsUser(*uid, *probe)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s() = %d (task uid %d)\n", *probe, t.ExitCode, t.UID)
	}

	if err := st.Save(*statePath); err != nil {
		fatal(err)
	}
	fmt.Printf("machine state written to %s\n", *statePath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simboot:", err)
	os.Exit(1)
}
