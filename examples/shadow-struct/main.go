// Shadow structs: hot-applying a patch that adds a field to a struct.
//
// CVE-2005-2709's published fix adds a `restricted` field to a linked
// list of sysctl-like entries — the one kind of patch a hot update system
// cannot apply mechanically, because live instances of the struct already
// exist without the field (Table 1: "adds field to struct", 48 lines of
// new code). The programmer's hot version keeps the layout and stores the
// new field in shadow data structures keyed by object address, with a
// ksplice_apply hook that walks the live list attaching shadows while the
// machine is stopped.
//
//	go run ./examples/shadow-struct
package main

import (
	"fmt"
	"log"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

func main() {
	cve, _ := cvedb.ByID("CVE-2005-2709")
	tree := cvedb.Tree(cve.Version)
	k, err := kernel.Boot(tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %s; kinit built the live entry list on the kmalloc heap\n\n", k.Version)

	// Unprivileged read of the restricted entry succeeds (the struct has
	// no permission field at all).
	t, err := k.CallAsUser(1000, cve.Probe.Entry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uid 1000 reads entry 3: %d  <- should be restricted\n\n", t.ExitCode)

	// The update. Note what ksplice-create reports: this is a
	// data-semantics patch carrying custom code.
	u, err := core.CreateUpdate(tree, cve.Patch(), core.CreateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update carries ksplice hooks: %v\n", u.HasHooks())
	fmt.Printf("programmer-written custom code: %d logical lines (Table 1 says 48)\n\n",
		cve.NewCodeLines())

	mgr := core.NewManager(k)
	a, err := mgr.Apply(u, core.ApplyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied: %d trampolines, pause %v\n", len(a.Trampolines), a.Pause)
	fmt.Println("the ksplice_apply hook walked the live list and attached a shadow")
	fmt.Println("word to each existing entry while the machine was stopped")
	fmt.Println()

	// The same live entries — allocated before the update ever existed —
	// are now permission-checked through their shadows.
	t, err = k.CallAsUser(1000, cve.Probe.Entry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uid 1000 reads entry 3: %d  <- EPERM-style refusal\n", t.ExitCode)
	// Call through the base-kernel entry (the bare name now also names
	// the loaded replacement).
	addr, err := k.Syms.BaseFunc("c2005_2709_read")
	if err != nil {
		log.Fatal(err)
	}
	rootVal, err := k.CallIsolatedAddr(addr, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uid 0    reads entry 3: %d  <- root still allowed\n", rootVal)
}
