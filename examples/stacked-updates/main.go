// Stacked updates: patching a previously-patched kernel (section 5.4).
//
// A second hot update is prepared against the previously-patched source —
// the original tree plus every hot-applied patch — and its run-pre
// matching binds against the newest replacement code already in the
// kernel, so trampolines chain: original -> v2 -> v3. Undo is strictly
// LIFO.
//
//	go run ./examples/stacked-updates
package main

import (
	"fmt"
	"log"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

// callBase calls the base kernel's entry for name: after updates the bare
// name is ambiguous (replacements share it), and execution must enter
// through the original, trampolined, address — exactly as real callers
// do.
func callBase(k *kernel.Kernel, name string, args ...int64) int64 {
	addr, err := k.Syms.BaseFunc(name)
	if err != nil {
		log.Fatal(err)
	}
	v, err := k.CallIsolatedAddr(addr, args...)
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	cve, _ := cvedb.ByID("CVE-2005-4639")
	tree := cvedb.Tree(cve.Version)
	k, err := kernel.Boot(tree)
	if err != nil {
		log.Fatal(err)
	}
	mgr := core.NewManager(k)

	fmt.Printf("ca_get_slot_info(0) = %d   (vulnerable original)\n\n", callBase(k, "ca_get_slot_info", 0))

	// Update 1: the real fix.
	u1, err := core.CreateUpdate(tree, cve.Patch(), core.CreateOptions{Name: "ksplice-fix"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.Apply(u1, core.ApplyOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update 1:       = %d   (bounds check live)\n", callBase(k, "ca_get_slot_info", 0))

	// Update 2 is diffed against the PREVIOUSLY-PATCHED source.
	patched, err := tree.Patch(cve.Patch())
	if err != nil {
		log.Fatal(err)
	}
	followup := `--- a/drivers/dst_ca.mc
+++ b/drivers/dst_ca.mc
@@ -8,7 +8,7 @@
 	if (slot < 0 || slot >= 4) {
 		return -1;
 	}
 	if (debug) {
-		printk("dst_ca: slot query\n");
+		printk("dst_ca: slot query (v2)\n");
 	}
-	return ca_slots[slot];
+	return ca_slots[slot] + 1000;
 }
`
	u2, err := core.CreateUpdate(patched, followup, core.CreateOptions{Name: "ksplice-followup"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.Apply(u2, core.ApplyOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update 2:       = %d   (chained through both trampolines)\n\n",
		callBase(k, "ca_get_slot_info", 0))

	fmt.Printf("applied stack: ")
	for _, a := range mgr.Applied() {
		fmt.Printf("%s ", a.Update.Name)
	}
	fmt.Println("\n\nundoing LIFO:")

	if err := mgr.Undo(core.ApplyOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after undo #2:        = %d\n", callBase(k, "ca_get_slot_info", 0))
	if err := mgr.Undo(core.ApplyOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after undo #1:        = %d   (vulnerable original again)\n", callBase(k, "ca_get_slot_info", 0))
}
