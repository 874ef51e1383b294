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

	"gosplice/internal/core"
	"gosplice/internal/cvedb"
	"gosplice/internal/simstate"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

func main() {
	statePath := flag.String("state", "", "machine state file naming the running kernel")
	version := flag.String("version", "", "kernel release (alternative to -state)")
	patchPath := flag.String("patch", "", "unified diff to convert into a hot update")
	cveID := flag.String("cve", "", "use the corpus patch for this CVE")
	out := flag.String("o", "", "output tarball (default <name>.tar)")
	cacheDir := flag.String("cache-dir", "", "persist build artifacts in this directory (shared across processes)")
	cacheStats := flag.Bool("cache-stats", false, "print artifact cache counters to stderr on exit")
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
			fmt.Fprintln(os.Stderr, "ksplice-create:", err)
		}
	}()

	if err := srctree.UseDiskStore(*cacheDir, *cacheGC); err != nil {
		fatal(err)
	}

	var tree *srctree.Tree
	var err error
	switch {
	case *statePath != "":
		st, err2 := simstate.Load(*statePath)
		if err2 != nil {
			fatal(err2)
		}
		tree, err = st.Tree()
	case *version != "":
		st, err2 := simstate.New(*version)
		if err2 != nil {
			fatal(err2)
		}
		tree, err = st.Tree()
	default:
		fatal(fmt.Errorf("need -state or -version"))
	}
	if err != nil {
		fatal(err)
	}

	var patchText, name string
	switch {
	case *patchPath != "":
		b, err := os.ReadFile(*patchPath)
		if err != nil {
			fatal(err)
		}
		patchText = string(b)
	case *cveID != "":
		c, ok := cvedb.ByID(*cveID)
		if !ok {
			fatal(fmt.Errorf("unknown CVE %q", *cveID))
		}
		patchText = c.Patch()
		name = "ksplice-" + strings.ToLower(strings.TrimPrefix(c.ID, "CVE-"))
	default:
		fatal(fmt.Errorf("need -patch or -cve"))
	}

	u, err := core.CreateUpdate(tree, patchText, core.CreateOptions{Name: name})
	if err != nil {
		fatal(err)
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
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := u.WriteTar(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksplice-create:", err)
	os.Exit(1)
}
