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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gosplice/internal/eval"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

// flushTrace exports -trace-out; fatal exit paths call it so a failed
// run still leaves its trace behind.
var flushTrace = func() {}

func main() {
	all := flag.Bool("all", false, "print every table and figure")
	table := flag.String("table", "", "print one table: headline, 1, inlining, symbols, pause, timings, cache")
	figure := flag.Int("figure", 0, "print one figure (3)")
	only := flag.String("only", "", "comma-separated CVE IDs to evaluate")
	verbose := flag.Bool("v", false, "log per-patch progress")
	stress := flag.Int("stress", 50, "stress workload rounds per update")
	stacked := flag.Bool("stacked", false, "leave every update applied (one kernel per release accumulates all its fixes)")
	jobs := flag.Int("j", runtime.NumCPU(), "patches evaluated concurrently (stacked mode is always sequential); the tables are identical for any -j")
	cacheDir := flag.String("cache-dir", "", "persist build artifacts in this directory (shared across processes)")
	cacheGC := flag.Int64("cache-gc-bytes", 0, "sweep the on-disk artifact cache down to this many bytes before running (0 = no sweep)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address while running (host:0 picks a port)")
	traceOut := flag.String("trace-out", "", "write the run's spans as a Chrome trace (chrome://tracing) to this file on exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile of the run to this file")
	flag.Parse()

	if !*all && *table == "" && *figure == 0 {
		*all = true
	}
	if bound, _, err := telemetry.ServeLoopback(*metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
		os.Exit(1)
	} else if bound != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", bound)
	}
	flushTrace = func() {
		if err := telemetry.WriteChromeTraceFile(*traceOut, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
		}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *mutexProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
		os.Exit(1)
	}

	opts := eval.Options{StressRounds: *stress, KeepApplied: *stacked, Workers: *jobs, Verbose: *verbose}
	if err := srctree.UseDiskStore(*cacheDir, *cacheGC); err != nil {
		fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
		os.Exit(1)
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *only != "" {
		opts.Only = map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			opts.Only[strings.TrimSpace(id)] = true
		}
	}

	res, err := eval.Run(opts)
	if err != nil {
		flushTrace()
		stopProfiles()
		fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
		os.Exit(1)
	}

	switch {
	case *all:
		fmt.Print(res.Report())
	case *figure == 3:
		fmt.Print(res.Figure3())
	case *table == "headline":
		fmt.Print(res.Headline())
	case *table == "1":
		fmt.Print(res.Table1())
	case *table == "inlining":
		fmt.Print(res.InliningTable())
	case *table == "symbols":
		fmt.Print(res.SymbolsTable())
	case *table == "pause":
		fmt.Print(res.PauseTable())
	case *table == "timings":
		fmt.Print(res.TimingsTable())
	case *table == "cache":
		fmt.Print(res.CacheTable())
	default:
		fmt.Fprintf(os.Stderr, "ksplice-eval: unknown table/figure\n")
		os.Exit(2)
	}

	flushTrace()
	stopProfiles()
	failed := 0
	for _, p := range res.Patches {
		if !p.OK() {
			failed++
			fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", p.ID, p.Err)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// startProfiles turns on the requested pprof profiles and returns a
// flush-and-close function. Mutex profiling samples every contention
// event (fraction 1): the eval run is short and the point of the profile
// is to see create-stage and store contention at all, not to sample it.
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
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mutexPath != "" {
			f, err := os.Create(mutexPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
				return
			}
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "ksplice-eval:", err)
			}
			f.Close()
		}
	}, nil
}
