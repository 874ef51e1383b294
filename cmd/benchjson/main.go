// Command benchjson converts `go test -bench` output into a JSON perf
// record. It reads a benchmark log (stdin or -in), extracts every
// Benchmark line — ns/op, B/op, allocs/op, and all custom ReportMetric
// units such as the eval pipeline's cache hit rates — and writes a
// machine-readable file that successive runs can diff to track the perf
// trajectory.
//
//	go test -run '^$' -bench 'BenchmarkEvalAll64' -benchmem > bench.out
//	benchjson -in bench.out -out BENCH_eval.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gosplice/internal/atomicfile"
)

// cpOut marks the -out write: the record is regenerated from the
// benchmark log, so it is a cache point, no fsync.
var cpOut = atomicfile.CachePoint("cli.benchjson")

// benchLine is one benchmark result. NsPerOp is pulled out of Metrics
// because every consumer wants it; the rest (including custom units like
// "unit-cache-hit-%") stay in the map.
type benchLine struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type benchFile struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchLine `json:"benchmarks"`
	// Telemetry is the benchmark process's merged metrics snapshot (the
	// JSON the bench harness writes to $GOSPLICE_TELEMETRY_OUT), embedded
	// verbatim via -telemetry so one record carries both the timings and
	// the counters behind them.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

func parse(r io.Reader) (*benchFile, error) {
	out := &benchFile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			out.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := benchLine{
			// Strip the -GOMAXPROCS suffix so records from machines with
			// different core counts stay comparable by name.
			Name:       strings.TrimSuffix(fields[0], "-"+lastDash(fields[0])),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = v
			} else {
				b.Metrics[fields[i+1]] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	return out, sc.Err()
}

// lastDash returns the text after the final '-' of s (the GOMAXPROCS
// suffix on benchmark names), or "" if it is not numeric.
func lastDash(s string) string {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(s[i+1:]); err != nil {
		return ""
	}
	return s[i+1:]
}

func main() {
	in := flag.String("in", "", "benchmark log to read (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	telem := flag.String("telemetry", "", "telemetry snapshot JSON to embed (as written to $GOSPLICE_TELEMETRY_OUT)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	res, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(res.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	if *telem != "" {
		b, err := os.ReadFile(*telem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !json.Valid(b) {
			fmt.Fprintf(os.Stderr, "benchjson: %s is not valid JSON\n", *telem)
			os.Exit(1)
		}
		res.Telemetry = json.RawMessage(b)
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := atomicfile.Write(*out, enc, 0o644, nil, cpOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
