package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	log := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: gosplice",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkEvalAll64J4-8         \t       1\t1234567890 ns/op\t        42.00 patches-no-new-code\t        97.50 unit-cache-hit-%",
		"BenchmarkKernelBuild-8        \t      60\t  20047348 ns/op\t 5242880 B/op\t   12345 allocs/op",
		"PASS",
		"ok  \tgosplice\t12.345s",
	}, "\n")
	res, err := parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if res.Goos != "linux" || res.Pkg != "gosplice" {
		t.Errorf("header: %+v", res)
	}
	if len(res.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(res.Benchmarks))
	}
	b := res.Benchmarks[0]
	if b.Name != "BenchmarkEvalAll64J4" {
		t.Errorf("name = %q (GOMAXPROCS suffix not stripped)", b.Name)
	}
	if b.Iterations != 1 || b.NsPerOp != 1234567890 {
		t.Errorf("iters/ns = %d/%v", b.Iterations, b.NsPerOp)
	}
	if b.Metrics["unit-cache-hit-%"] != 97.5 || b.Metrics["patches-no-new-code"] != 42 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	k := res.Benchmarks[1]
	if k.Metrics["B/op"] != 5242880 || k.Metrics["allocs/op"] != 12345 {
		t.Errorf("benchmem metrics = %v", k.Metrics)
	}
}
