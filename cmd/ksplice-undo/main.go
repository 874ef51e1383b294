// Command ksplice-undo reverses the most recently applied hot update on a
// simulated machine: the original function entries are restored and the
// update leaves the machine's state file.
//
//	ksplice-undo -state machine.json
package main

import (
	"flag"
	"fmt"
	"os"

	"gosplice/internal/core"
	"gosplice/internal/simstate"
	"gosplice/internal/telemetry"
)

func main() {
	statePath := flag.String("state", "machine.json", "machine state file")
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
			fmt.Fprintln(os.Stderr, "ksplice-undo:", err)
		}
	}()

	st, err := simstate.Load(*statePath)
	if err != nil {
		fatal(err)
	}
	if len(st.Updates) == 0 {
		fatal(fmt.Errorf("no updates applied to this machine"))
	}
	_, mgr, err := st.Replay()
	if err != nil {
		fatal(err)
	}
	applied := mgr.Applied()
	last := applied[len(applied)-1]
	if err := mgr.Undo(core.ApplyOptions{}); err != nil {
		fatal(err)
	}
	fmt.Printf("reversed %s: %d function(s) restored\n",
		last.Update.Name, len(last.Trampolines))

	st.Updates = st.Updates[:len(st.Updates)-1]
	if err := st.Save(*statePath); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksplice-undo:", err)
	os.Exit(1)
}
