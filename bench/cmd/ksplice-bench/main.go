// Command ksplice-bench runs one workload of the gosplice benchmark in
// this process and prints its metrics as JSON: first a detail line with
// every metric, then — as the last line — the result record
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// whose metrics are the end-to-end set (-trace 0) or the per-layer set
// (-trace 1). Times and rates are reported at nominal host speed: the
// detail line's host_slowdown is how much slower than nominal the
// harness's yardstick found the host, and times were divided by it. It
// exits 1 when an output fails its correctness check.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload apply --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gosplice/bench/harness"
)

func main() { os.Exit(run()) }

func run() int {
	cfg := harness.Config{Log: os.Stderr}
	flag.StringVar(&cfg.Workload, "workload", "", "workload: create, apply, subscribe or rollout")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measured window in wall-clock seconds")
	trace := flag.Int("trace", 0, "1 records a span per layer call and reports the per-layer metrics")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "Chrome trace file for -trace 1 (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	cfg.Trace = *trace == 1
	if cfg.Trace && cfg.TraceOut == "" {
		cfg.TraceOut = filepath.Join(".bench_build", "trace-"+cfg.Workload+".json")
	}
	// The run's files (published channels, machine state dirs) live in
	// the checkout's ignored build directory and are removed on exit.
	work := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ksplice-bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksplice-bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = dir

	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksplice-bench:", err)
		return 2
	}
	byName := func(ms []harness.Metric) map[string]harness.Metric {
		out := make(map[string]harness.Metric, len(ms))
		for _, m := range ms {
			out[m.Name] = m
		}
		return out
	}
	detail := map[string]any{
		"workload":      res.Workload,
		"seed":          cfg.Seed,
		"trace":         *trace,
		"end_to_end":    byName(res.EndToEnd),
		"per_layer":     byName(res.PerLayer),
		"percentiles":   res.Percentiles,
		"samples":       res.Samples,
		"host_slowdown": res.Slowdown,
	}
	reported := res.EndToEnd
	if cfg.Trace {
		reported = res.PerLayer
	}
	final := map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   byName(reported),
	}
	enc := json.NewEncoder(os.Stdout)
	for _, v := range []any{detail, final} {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "ksplice-bench:", err)
			return 2
		}
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "ksplice-bench:", res.Problem)
		return 1
	}
	return 0
}
