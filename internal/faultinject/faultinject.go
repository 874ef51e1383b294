// Package faultinject provides deterministic, seed-driven fault plans
// for exercising the update pipeline's failure paths: a Plan schedules
// faults (error on the Nth operation, truncate at byte K, flip bit B,
// delay for D) and applies them to any byte-stream operation. Wrappers
// adapt a plan to the surfaces that matter here — a channel.Transport
// (client-side corruption), an http.Handler (server/network corruption,
// which exercises the HTTP transport's retry and Range-resume paths),
// and the artifact store's disk tier via store.Options.ReadFault.
//
// Plans are deterministic: the same seed and operation sequence produce
// the same faults, so a chaos test that fails replays exactly.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"gosplice/internal/channel"
	"gosplice/internal/crashpoint"
	"gosplice/internal/telemetry"
)

// Kind is a fault class.
type Kind int

const (
	// Error fails the operation outright (a refused connection, an I/O
	// error, a 5xx).
	Error Kind = iota
	// Truncate cuts the payload at Offset bytes.
	Truncate
	// FlipBit flips bit Bit of the byte at Offset.
	FlipBit
	// Delay stalls the operation for Sleep.
	Delay
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Truncate:
		return "truncate"
	case FlipBit:
		return "flip-bit"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one planned fault, firing on the plan's Op'th operation
// (1-based).
type Fault struct {
	Op     int
	Kind   Kind
	Offset int64         // Truncate: keep [0,Offset); FlipBit: byte index
	Bit    uint8         // FlipBit: which bit (0–7)
	Sleep  time.Duration // Delay
}

// A plan's metric families (see Plan.Metrics). Fired carries a "kind"
// label, one child per fault class (Kind.String()).
const (
	MetricOps   = "gosplice_faultinject_ops_total"
	MetricFired = "gosplice_faultinject_fired_total"
)

// Plan is a deterministic schedule of faults over a sequence of
// operations. It is safe for concurrent use; concurrent operations are
// serialized onto the schedule in arrival order.
type Plan struct {
	mu   sync.Mutex
	op   int
	byOp map[int][]Fault

	// crash, when set, schedules a simulated process death at a labeled
	// crash point (see crash.go / internal/crashpoint).
	crash *crashpoint.Plan

	met    *telemetry.Registry
	cOps   *telemetry.Counter
	cFired [numKinds]*telemetry.Counter
}

// Process-wide mirrors: every plan's fired faults also count here, so a
// fleet-level scrape (or the chaos soak) sees total injected faults
// without enumerating plans.
var defaultFired = func() [numKinds]*telemetry.Counter {
	d := telemetry.Default()
	d.Help(MetricFired, "injected faults by class, summed across all plans")
	var cs [numKinds]*telemetry.Counter
	for k := Kind(0); k < numKinds; k++ {
		cs[k] = d.Counter(MetricFired, telemetry.L("kind", k.String()))
	}
	return cs
}()

// New builds a plan from explicit faults.
func New(faults ...Fault) *Plan {
	p := &Plan{byOp: map[int][]Fault{}, met: telemetry.NewRegistry()}
	p.met.Help(MetricOps, "operations that passed through this plan")
	p.met.Help(MetricFired, "injected faults by class")
	p.cOps = p.met.Counter(MetricOps)
	for k := Kind(0); k < numKinds; k++ {
		p.cFired[k] = p.met.Counter(MetricFired, telemetry.L("kind", k.String()))
	}
	for _, f := range faults {
		p.byOp[f.Op] = append(p.byOp[f.Op], f)
	}
	return p
}

// FromSeed derives a pseudo-random plan over roughly ops operations,
// faulting about rate of them, cycling through every fault class so each
// appears when ops*rate >= 4. The same seed always yields the same plan.
func FromSeed(seed int64, ops int, rate float64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	var faults []Fault
	kind := Kind(0)
	for op := 1; op <= ops; op++ {
		if rng.Float64() >= rate {
			continue
		}
		f := Fault{Op: op, Kind: kind}
		switch kind {
		case Truncate:
			f.Offset = rng.Int63n(4096)
		case FlipBit:
			f.Offset = rng.Int63n(4096)
			f.Bit = uint8(rng.Intn(8))
		case Delay:
			f.Sleep = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		faults = append(faults, f)
		kind = (kind + 1) % numKinds
	}
	return New(faults...)
}

// Apply passes one operation's payload through the plan: the operation
// counter advances, and any faults scheduled for it fire. The input is
// never mutated; corrupted payloads are copies. An Error fault returns a
// non-nil error, matching store.Options.ReadFault's contract.
func (p *Plan) Apply(b []byte) ([]byte, error) {
	p.mu.Lock()
	p.op++
	faults := p.byOp[p.op]
	var sleep time.Duration
	var failErr error
	for _, f := range faults {
		p.cFired[f.Kind].Inc()
		defaultFired[f.Kind].Inc()
		switch f.Kind {
		case Error:
			failErr = fmt.Errorf("faultinject: planned error on op %d", p.op)
		case Truncate:
			if int64(len(b)) > f.Offset {
				b = append([]byte(nil), b[:f.Offset]...)
			}
		case FlipBit:
			if f.Offset < int64(len(b)) {
				c := append([]byte(nil), b...)
				c[f.Offset] ^= 1 << (f.Bit % 8)
				b = c
			}
		case Delay:
			sleep += f.Sleep
		}
	}
	p.cOps.Inc()
	p.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if failErr != nil {
		return nil, failErr
	}
	return b, nil
}

// Metrics returns the plan's telemetry registry: MetricOps counts the
// operations that passed through it, MetricFired the faults it injected
// by kind.
func (p *Plan) Metrics() *telemetry.Registry { return p.met }

// --- channel.Transport wrapper ---

type transport struct {
	t channel.Transport
	p *Plan
}

// WrapTransport interposes the plan between a subscriber and its
// transport: every Manifest, Fetch, and FetchBlob is one plan
// operation. Manifest calls see only Error and Delay faults (there are
// no raw bytes to corrupt at that layer); Fetch and FetchBlob payloads
// get the full treatment — so artifact and delta blobs are corrupted,
// truncated, and delayed exactly like tarballs.
func WrapTransport(t channel.Transport, p *Plan) channel.Transport {
	return &transport{t: t, p: p}
}

func (f *transport) Manifest(ctx context.Context) (*channel.Manifest, error) {
	if _, err := f.p.Apply(nil); err != nil {
		return nil, err
	}
	return f.t.Manifest(ctx)
}

func (f *transport) Fetch(ctx context.Context, e channel.Entry) ([]byte, error) {
	b, err := f.t.Fetch(ctx, e)
	if err != nil {
		// The real transport already failed; still burn a plan op so
		// schedules stay aligned with the operation count.
		f.p.Apply(nil)
		return nil, err
	}
	return f.p.Apply(b)
}

func (f *transport) FetchBlob(ctx context.Context, digest string, size int64) ([]byte, error) {
	b, err := f.t.FetchBlob(ctx, digest, size)
	if err != nil {
		f.p.Apply(nil)
		return nil, err
	}
	return f.p.Apply(b)
}

// --- http.Handler wrapper ---

// Handler interposes the plan between an HTTP server and the network:
// each request is one plan operation applied to the buffered response
// body. An Error fault turns the response into a 500; Truncate sends
// fewer bytes than the declared Content-Length (exactly what a dropped
// connection looks like to the client, driving its resume path); FlipBit
// corrupts bytes in flight; Delay stalls before responding.
func Handler(h http.Handler, p *Plan) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &bufferingWriter{header: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		body, err := p.Apply(rec.body)
		if err != nil {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		for k, vs := range rec.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		// Keep the original Content-Length: a truncating fault then looks
		// like a connection cut mid-body, not a short-but-complete file.
		if len(body) < len(rec.body) {
			w.Header().Set("Content-Length", fmt.Sprint(len(rec.body)))
		}
		w.WriteHeader(rec.status)
		w.Write(body)
	})
}

type bufferingWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *bufferingWriter) Header() http.Header { return w.header }

func (w *bufferingWriter) WriteHeader(status int) { w.status = status }

func (w *bufferingWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}
