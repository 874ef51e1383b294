// Quickstart: the whole Ksplice story in one run.
//
// A simulated kernel boots with the CVE-2006-2451 prctl vulnerability; an
// unprivileged exploit escalates to root. We turn the security patch (a
// plain unified diff) into a hot update with pre-post differencing, apply
// it to the running kernel — run-pre matching, stop_machine, a 5-byte
// jump trampoline — and the exploit stops working. The kernel never
// reboots: its uptime counter, console, and live state carry across.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
)

func main() {
	// 1. Boot the vulnerable kernel.
	cve, _ := cvedb.ByID("CVE-2006-2451")
	tree := cvedb.Tree(cve.Version)
	k, err := kernel.Boot(tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %s (%d compilation units, image %#x..%#x)\n\n",
		k.Version, len(k.Build.Objects), k.Image.Base, k.Image.End())

	// 2. The exploit works: an unprivileged task becomes root.
	task, err := k.CallAsUser(1000, cve.Exploit.Entry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exploit as uid 1000: exit=%d, task uid now %d  <- escalated!\n\n",
		task.ExitCode, task.UID)

	// 3. ksplice-create: the published patch, unchanged, becomes a hot
	// update at the object code layer.
	fmt.Printf("the security patch (%d changed lines):\n%s\n", cve.PatchLoC(), cve.Patch())
	u, err := core.CreateUpdate(tree, cve.Patch(), core.CreateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update %s: replaces %v\n\n", u.Name, u.PatchedFuncs())

	// 4. ksplice-apply: run-pre matching, stop_machine, trampolines.
	uptimeBefore := k.TotalSteps()
	mgr := core.NewManager(k)
	a, err := mgr.Apply(u, core.ApplyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range a.Trampolines {
		fmt.Printf("spliced %-12s: jmp %#x -> %#x (%d saved bytes)\n",
			tr.Name, tr.Addr, tr.Target, len(tr.Saved))
	}
	fmt.Printf("machine stopped for %v (attempt %d)\n\n", a.Pause, a.Attempts)

	// 5. The exploit is dead; the kernel never stopped being the same
	// kernel.
	task, err = k.CallAsUser(1000, cve.Exploit.Entry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exploit as uid 1000: exit=%d, task uid still %d  <- blocked\n",
		task.ExitCode, task.UID)
	fmt.Printf("uptime: %d -> %d guest instructions, zero reboots\n",
		uptimeBefore, k.TotalSteps())

	// 6. Health check.
	if bad, err := k.Call("stress_main", 200); err != nil || bad != 0 {
		log.Fatalf("stress workload: bad=%d err=%v", bad, err)
	}
	fmt.Println("stress workload: 200 rounds clean")
}
