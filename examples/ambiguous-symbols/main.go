// Ambiguous symbols: why run-pre matching exists (sections 4.1 and 6.3).
//
// The dst and dst_ca drivers each define a file-static `debug`. kallsyms
// lists both under the same name with nothing to tell them apart, so a
// symbol-table-driven hot update system cannot resolve the replacement
// code's reference to "debug" — or worse, resolves it to the wrong one.
// Run-pre matching recovers the right address from the running code
// itself: at a relocation site, the already-relocated run bytes give
// S = val + Prun - A.
//
//	go run ./examples/ambiguous-symbols
package main

import (
	"fmt"
	"log"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

func main() {
	cve, _ := cvedb.ByID("CVE-2005-4639")
	tree := cvedb.Tree(cve.Version)

	run := func(trust bool) {
		k, err := kernel.Boot(tree)
		if err != nil {
			log.Fatal(err)
		}
		syms := k.Syms.Lookup("debug")
		if !trust {
			fmt.Printf("kallsyms has %d symbols named \"debug\":\n", len(syms))
			for _, s := range syms {
				fmt.Printf("  %#x  (defined by %s)\n", s.Addr, s.Owner)
			}
			census := k.Syms.Ambiguity()
			fmt.Printf("kernel-wide: %d of %d symbols are ambiguous, in %d of %d units\n\n",
				census.AmbiguousSymbols, census.TotalSymbols,
				census.UnitsWithAmbig, census.TotalUnits)
		}

		u, err := core.CreateUpdate(tree, cve.Patch(), core.CreateOptions{})
		if err != nil {
			log.Fatal(err)
		}
		mgr := core.NewManager(k)
		a, err := mgr.Apply(u, core.ApplyOptions{TrustSymtab: trust})
		if err != nil {
			log.Fatal(err)
		}

		mode := "run-pre matching"
		if trust {
			mode = "TRUST-SYMTAB ABLATION (first kallsyms candidate)"
		}
		fmt.Printf("applied with %s\n", mode)
		if !trust {
			m := a.Matches["drivers/dst_ca.mc"]
			fmt.Printf("  inferred debug = %#x from the unit's own run code\n", m.Vals["debug"])
		}

		// The replacement prints "dst_ca: slot query" when ITS debug is
		// non-zero. dst_ca's debug is 2 (on); dst's is 1 — both non-zero,
		// so distinguish by value: read through a probe that returns the
		// bound debug indirectly via console length. Simpler: the fixed
		// probe result only depends on bounds now; show the binding by
		// reading the console after a call.
		addr, err := k.Syms.BaseFunc("ca_get_slot_info")
		if err != nil {
			log.Fatal(err)
		}
		got, err := k.CallIsolatedAddr(addr, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ca_get_slot_info(1) = %d\n\n", got)
	}

	run(false)
	run(true)
	fmt.Println("(both complete here because dst_ca's slots are what the probe reads;")
	fmt.Println("the ablation's misbinding shows up when the two statics' values differ —")
	fmt.Println("see TestTrustSymtabAblationMisbinds in internal/core.)")
}
