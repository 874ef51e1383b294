// Package cli is the runtime the command-line tools share. New
// registers the flags every tool takes, Start serves metrics, installs
// the artifact store and opens one root span named after the tool, and
// Fatal, Usage and Exit are the only ways out: all end the root span
// and write -trace-out before the process exits, so a failed run leaves
// its trace behind too. Usage is Fatal for a bad command line, with
// exit status 2.
package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"gosplice/internal/atomicfile"
	"gosplice/internal/srctree"
	"gosplice/internal/telemetry"
)

// cpTrace marks the -trace-out write. A trace is a diagnostic the next
// run rewrites, so it is a cache point: no fsync.
var cpTrace = atomicfile.CachePoint("cli.trace")

// Runtime is one tool process: its name, the shared flags' values and
// its root span.
type Runtime struct {
	name        string
	metricsAddr string
	traceOut    string
	cacheDir    string
	cacheGC     int64
	span        *telemetry.Span
	trace       func(io.Writer) error
}

// New registers -metrics-addr and -trace-out on the command line of the
// tool called name. The trace it writes is the process's default
// tracer unless the tool hands another writer to SetTrace.
func New(name string) *Runtime {
	r := &Runtime{name: name, trace: telemetry.DefaultTracer().WriteChromeTrace}
	flag.StringVar(&r.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running (host:0 picks a port)")
	flag.StringVar(&r.traceOut, "trace-out", "", "write recorded spans as a Chrome trace to this file on exit")
	return r
}

// StoreFlags also registers -cache-dir and -cache-gc-bytes, the
// artifact-store pair of the tools that build a kernel.
func (r *Runtime) StoreFlags() {
	flag.StringVar(&r.cacheDir, "cache-dir", "", "persist build artifacts in this directory (shared across processes)")
	flag.Int64Var(&r.cacheGC, "cache-gc-bytes", 0, "sweep the on-disk artifact cache down to this many bytes before running (0 = no sweep)")
}

// Start opens the root span, serves -metrics-addr (announcing the bound
// address on stderr as "telemetry: serving http://ADDR/metrics") and
// installs the -cache-dir store. Call it once, after flag.Parse.
func (r *Runtime) Start() {
	r.span = telemetry.DefaultTracer().Start(r.name)
	bound, _, err := telemetry.ServeLoopback(r.metricsAddr)
	if err != nil {
		r.Fatal(err)
	}
	if bound != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", bound)
	}
	if err := srctree.UseDiskStore(r.cacheDir, r.cacheGC); err != nil {
		r.Fatal(err)
	}
}

// SetTrace replaces what -trace-out writes on exit.
func (r *Runtime) SetTrace(write func(io.Writer) error) { r.trace = write }

// Fatal prints err on stderr, records it on the root span and exits 1.
func (r *Runtime) Fatal(err error) { r.fail(err, 1) }

// Usage is Fatal for a command line that asks for something the tool
// does not have: it exits 2, before any work is done.
func (r *Runtime) Usage(err error) { r.fail(err, 2) }

func (r *Runtime) fail(err error, code int) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
	r.span.SetAttr("error", err.Error())
	r.Exit(code)
}

// Exit ends the root span, writes -trace-out and exits with code. A
// trace that cannot be written turns exit status 0 into 1.
func (r *Runtime) Exit(code int) {
	if err := r.end(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace out: %v\n", r.name, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// end ends the root span and writes -trace-out, if one was asked for.
func (r *Runtime) end() error {
	r.span.End()
	if r.traceOut == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := r.trace(&buf); err != nil {
		return err
	}
	return atomicfile.Write(r.traceOut, buf.Bytes(), 0o644, nil, cpTrace)
}
