// Command ksplice-apply applies a hot update tarball to a simulated
// machine:
//
//	ksplice-apply -state machine.json ksplice-2006-2451.tar
//
// The machine (a deterministic simulation persisted as its boot source
// plus applied-update list) is replayed, the new update is spliced in
// under stop_machine with full run-pre matching, the stress workload is
// run as a health check, and the state file is extended. A patched
// function that stays busy is retried a fixed 5 times, with the guest
// advanced by a fixed step budget between attempts, before the update is
// abandoned; there is no setting for it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gosplice/internal/cli"
	"gosplice/internal/codegen"
	"gosplice/internal/core"
	"gosplice/internal/simstate"
)

func main() {
	rt := cli.New("ksplice-apply")
	rt.StoreFlags()
	statePath := flag.String("state", "machine.json", "machine state file")
	trust := flag.Bool("trust-symtab", false, "UNSAFE: skip run-pre matching (ablation mode)")
	stress := flag.Int("stress", 100, "post-update stress workload rounds (0 to skip)")
	flag.Parse()
	rt.Start()
	if flag.NArg() != 1 {
		rt.Fatal(fmt.Errorf("usage: ksplice-apply [-state file] update.tar"))
	}
	tarPath := flag.Arg(0)

	st, err := simstate.Load(*statePath)
	if err != nil {
		rt.Fatal(err)
	}
	// The replay of already-applied updates always runs fully checked;
	// -trust-symtab (the ablation mode) affects only the new update.
	k, mgr, err := st.Replay()
	if err != nil {
		rt.Fatal(err)
	}

	f, err := os.Open(tarPath)
	if err != nil {
		rt.Fatal(err)
	}
	u, err := core.ReadTar(f)
	f.Close()
	if err != nil {
		rt.Fatal(err)
	}

	if u.Compiler != codegen.Version {
		fmt.Fprintf(os.Stderr, "ksplice-apply: warning: update built with %q, kernel with %q;\n",
			u.Compiler, codegen.Version)
		fmt.Fprintf(os.Stderr, "  run-pre matching will abort on any resulting code difference.\n")
	}

	a, err := mgr.Apply(u, core.ApplyOptions{TrustSymtab: *trust})
	if err != nil {
		rt.Fatal(err)
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
			rt.Fatal(fmt.Errorf("stress workload: %w", err))
		}
		if bad != 0 {
			rt.Fatal(fmt.Errorf("stress workload reported %d inconsistencies", bad))
		}
		fmt.Printf("  stress workload: %d rounds clean\n", *stress)
	}

	rel, err := filepath.Rel(filepath.Dir(*statePath), tarPath)
	if err != nil {
		rel = tarPath
	}
	st.Updates = append(st.Updates, rel)
	if err := st.Save(*statePath); err != nil {
		rt.Fatal(err)
	}
	rt.Exit(0)
}
