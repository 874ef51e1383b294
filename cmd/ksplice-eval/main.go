// Command ksplice-eval regenerates the paper's evaluation artifacts
// against the corpus: the headline result, Figure 3, Table 1, and the
// section 6.3 censuses.
//
//	ksplice-eval -all
//	ksplice-eval -figure 3
//	ksplice-eval -table headline|1|inlining|symbols|pause|timings|cache
//	ksplice-eval -only CVE-2006-2451,CVE-2005-2709 -v
//	ksplice-eval -j 8 -table headline
//
// With -cache-dir, build artifacts (compiled units, linked kernel
// images) persist on disk: a cold ksplice-eval process warm-starts from
// what a previous run left behind, visible in `-table cache`.
//
//	ksplice-eval -cache-dir ~/.cache/gosplice -table cache
//
// For performance work, -cpuprofile and -mutexprofile write pprof
// profiles of the run, and -trace-out exports the span tracer's Chrome
// trace; together they attribute wall-clock to stages and contention to
// locks.
//
//	ksplice-eval -j 8 -cpuprofile cpu.pb.gz -mutexprofile mutex.pb.gz -trace-out trace.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gosplice/internal/atomicfile"
	"gosplice/internal/cli"
	"gosplice/internal/cvedb"
	"gosplice/internal/eval"
)

// cpMutexProfile marks the -mutexprofile dump, a diagnostic the next
// run rewrites: a cache point, no fsync.
var cpMutexProfile = atomicfile.CachePoint("cli.mutexprofile")

// tables maps each -table name to its renderer.
var tables = map[string]func(*eval.Result) string{
	"headline": (*eval.Result).Headline,
	"1":        (*eval.Result).Table1,
	"inlining": (*eval.Result).InliningTable,
	"symbols":  (*eval.Result).SymbolsTable,
	"pause":    (*eval.Result).PauseTable,
	"timings":  (*eval.Result).TimingsTable,
	"cache":    (*eval.Result).CacheTable,
}

func main() {
	rt := cli.New("ksplice-eval")
	rt.StoreFlags()
	all := flag.Bool("all", false, "print every table and figure")
	table := flag.String("table", "", "print one table: headline, 1, inlining, symbols, pause, timings, cache")
	figure := flag.Int("figure", 0, "print one figure (3)")
	only := flag.String("only", "", "comma-separated CVE IDs to evaluate")
	verbose := flag.Bool("v", false, "log per-patch progress")
	stress := flag.Int("stress", 50, "stress workload rounds per update")
	stacked := flag.Bool("stacked", false, "leave every update applied (one kernel per release accumulates all its fixes)")
	jobs := flag.Int("j", runtime.NumCPU(), "patches evaluated concurrently (stacked mode is always sequential); the tables are identical for any -j")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile of the run to this file")
	flag.Parse()
	rt.Start()

	var render func(*eval.Result) string
	switch {
	case *all || *table == "" && *figure == 0:
		render = (*eval.Result).Report
	case *figure == 3:
		render = (*eval.Result).Figure3
	default:
		render = tables[*table]
	}
	if render == nil {
		rt.Usage(fmt.Errorf("unknown table/figure"))
	}

	opts := eval.Options{StressRounds: *stress, KeepApplied: *stacked, Workers: *jobs, Verbose: *verbose}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *only != "" {
		opts.Only = map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := cvedb.ByID(id); !ok {
				rt.Usage(fmt.Errorf("-only: unknown CVE %q", id))
			}
			opts.Only[id] = true
		}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *mutexProfile)
	if err != nil {
		rt.Fatal(err)
	}
	res, err := eval.Run(opts)
	stopProfiles()
	if err != nil {
		rt.Fatal(err)
	}
	fmt.Print(render(res))

	code := 0
	for _, p := range res.Patches {
		if !p.OK() {
			code = 1
			fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", p.ID, p.Err)
		}
	}
	rt.Exit(code)
}

// startProfiles turns on the requested pprof profiles and returns a
// function that stops them and writes them out. Mutex profiling samples
// every contention event (fraction 1): the eval run is short and the
// point of the profile is to see create-stage and store contention at
// all, not to sample it. The CPU profile streams to its file for the
// whole run, so it is the one output not written through atomicfile.
func startProfiles(cpuPath, mutexPath string) (stop func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mutexPath != "" {
			var buf bytes.Buffer
			err := pprof.Lookup("mutex").WriteTo(&buf, 0)
			if err == nil {
				err = atomicfile.Write(mutexPath, buf.Bytes(), 0o644, nil, cpMutexProfile)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
			}
		}
	}, nil
}
