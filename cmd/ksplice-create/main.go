// Command ksplice-create constructs a hot update tarball from a kernel
// source tree and a traditional unified-diff patch, mirroring the
// paper's:
//
//	user:~$ ksplice-create --patch=prctl ~/src
//	Ksplice update tarball written to ksplice-8c4o6u.tar.gz
//
// The source tree is named by a machine state file (whose release and
// previously-applied updates determine the previously-patched source) or
// by a bare release version. The patch comes from a file, or from the
// built-in CVE corpus with -cve.
//
//	ksplice-create -state machine.json -patch fix.patch
//	ksplice-create -version sim-2.6.16-deb -cve CVE-2006-2451
//
// With -cache-dir, compiled units persist in an on-disk artifact store:
// a later ksplice-create process recompiles only what the patch changed,
// even from a cold start.
//
//	ksplice-create -version sim-2.6.16-deb -cve CVE-2006-2451 -cache-dir ~/.cache/gosplice
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gosplice/internal/atomicfile"
	"gosplice/internal/cli"
	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/simstate"
	"gosplice/internal/srctree"
)

// cpTarball marks the -o write: the tarball is encoded in memory and
// installed in one atomic, durable replace, so an interrupted create
// never leaves a torn or truncated tarball.
var cpTarball = atomicfile.Point("cli.tarball")

func main() {
	rt := cli.New("ksplice-create")
	rt.StoreFlags()
	statePath := flag.String("state", "", "machine state file naming the running kernel")
	version := flag.String("version", "", "kernel release (alternative to -state)")
	patchPath := flag.String("patch", "", "unified diff to convert into a hot update")
	cveID := flag.String("cve", "", "use the corpus patch for this CVE")
	out := flag.String("o", "", "output tarball (default <name>.tar)")
	cacheStats := flag.Bool("cache-stats", false, "print artifact cache counters to stderr on exit")
	flag.Parse()
	rt.Start()

	var tree *srctree.Tree
	var err error
	switch {
	case *statePath != "":
		st, err2 := simstate.Load(*statePath)
		if err2 != nil {
			rt.Fatal(err2)
		}
		tree, err = st.Tree()
	case *version != "":
		st, err2 := simstate.New(*version)
		if err2 != nil {
			rt.Fatal(err2)
		}
		tree, err = st.Tree()
	default:
		rt.Fatal(fmt.Errorf("need -state or -version"))
	}
	if err != nil {
		rt.Fatal(err)
	}

	var patchText, name string
	switch {
	case *patchPath != "":
		b, err := os.ReadFile(*patchPath)
		if err != nil {
			rt.Fatal(err)
		}
		patchText = string(b)
	case *cveID != "":
		c, ok := cvedb.ByID(*cveID)
		if !ok {
			rt.Fatal(fmt.Errorf("unknown CVE %q", *cveID))
		}
		patchText = c.Patch()
		name = "ksplice-" + strings.ToLower(strings.TrimPrefix(c.ID, "CVE-"))
	default:
		rt.Fatal(fmt.Errorf("need -patch or -cve"))
	}

	u, err := core.CreateUpdate(tree, patchText, core.CreateOptions{Name: name})
	if err != nil {
		rt.Fatal(err)
	}

	if changes := u.DataInitChanges(); len(changes) > 0 && !u.HasHooks() {
		fmt.Fprintf(os.Stderr, "ksplice-create: warning: the patch changes the initial value of %v\n", changes)
		fmt.Fprintf(os.Stderr, "  but supplies no ksplice_apply hooks; live instances will keep their\n")
		fmt.Fprintf(os.Stderr, "  current values (see Table 1 of the paper: such patches need custom code).\n")
	}

	path := *out
	if path == "" {
		path = u.Name + ".tar"
	}
	b, _, _, err := u.EncodeTar()
	if err != nil {
		rt.Fatal(err)
	}
	if err := atomicfile.Write(path, b, 0o644, nil, cpTarball); err != nil {
		rt.Fatal(err)
	}

	fmt.Printf("Ksplice update tarball written to %s\n", path)
	fmt.Printf("  kernel: %s, compiler: %s\n", u.KernelVersion, u.Compiler)
	for _, uu := range u.Units {
		fmt.Printf("  unit %s: patched=%v new=%v", uu.Path, uu.Patched, uu.New)
		if len(uu.DataInitChanges) > 0 {
			fmt.Printf(" data-init-changes=%v", uu.DataInitChanges)
		}
		fmt.Println()
	}

	if *cacheStats {
		c := srctree.Counters()
		fmt.Fprintf(os.Stderr, "cache: units %d mem + %d disk hits, %d compiled; store %d disk writes, %d evictions, %d disk errors\n",
			c.UnitHits, c.UnitDiskHits, c.UnitMisses,
			c.Store.DiskWrites, c.Store.Evictions, c.Store.DiskErrors)
	}
	rt.Exit(0)
}
