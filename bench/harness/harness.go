// Package harness is the gosplice benchmark: four workloads that drive
// the system the way its users do — a vendor creating updates, an
// operator splicing them into a running kernel, a machine subscribing to
// a channel, and a fleet rolling one out — timing each layer call from
// outside and checking every output.
//
// A run sets its workload up several times (setup_s is the median),
// runs a discarded warm-up, then runs timed ops in a closed loop on one
// goroutine for a fixed wall-clock budget. Correctness checks run
// between ops, outside the timed windows. Between steps a yardstick of
// fixed reference kernels measures the host's speed, and every time is
// reported at its nominal speed. Untraced runs give the end-to-end
// metrics; traced runs record a span per layer call on the harness's own
// tracer and give the per-layer self times.
package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"gosplice/internal/cvedb"
	"gosplice/internal/srctree"
)

// Config selects and sizes one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measured window's wall-clock budget; the loop ends
	// at the first whole step (a create pass, a subscribe cycle, a
	// rollout) past it.
	Seconds float64
	// Trace records per-layer spans; TraceOut, when set, receives them
	// as a Chrome trace.
	Trace    bool
	TraceOut string
	// WorkDir holds the run's files (published channels, machine state
	// dirs); the caller removes it.
	WorkDir string
	// Log receives progress lines (nil discards them).
	Log io.Writer
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// Metric is one reported value.
type Metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome.
type Result struct {
	Workload  string
	Correct   bool
	Problem   string // the first failed correctness check
	Attempted int
	Failed    int
	// EndToEnd and PerLayer follow the catalog order. Both are filled on
	// every run; per-layer self times are 0 unless the run was traced.
	EndToEnd []Metric
	PerLayer []Metric
	// Percentiles records the percentile each tail metric was actually
	// taken at, after the minTail clamp.
	Percentiles map[string]float64
	// Samples counts the samples behind each latency series.
	Samples map[string]int
	// Slowdown is the yardstick's reading: how much slower than nominal
	// the host ran. Every reported time was divided by it.
	Slowdown float64
}

// workload is one set-up instance of a workload.
type workload interface {
	// step runs one unit of work: a create pass, an apply cycle, a
	// subscribe cycle of four machines, or a rollout.
	step(r *runner) error
	// report adds the workload's own metrics to m.
	report(r *runner, m map[string]float64)
	// close releases everything setup acquired.
	close()
}

// Workloads lists the workload names in catalog order.
var Workloads = []string{"create", "apply", "subscribe", "rollout"}

var constructors = map[string]func(dir string) (workload, error){
	"create":    newCreate,
	"apply":     newApply,
	"subscribe": newSubscribe,
	"rollout":   newRollout,
}

// runner is the measuring loop's state, shared with the workloads.
type runner struct {
	cfg       Config
	rng       *rand.Rand
	rec       *recorder
	yard      *yardstick
	measuring bool

	deck              []string // releases left to deal
	attempted, failed int
	offClockTime      time.Duration        // step time spent in offClock
	samples           map[string][]float64 // latency series, ms unless named otherwise
	counts            map[string]float64   // per-layer counts over measured ops
	tails             map[string]float64   // tail metric -> percentile used
}

// Run performs one benchmark run.
func Run(cfg Config) (*Result, error) {
	newW, ok := constructors[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(Workloads, ", "))
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	r := &runner{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		rec:     newRecorder(cfg.Trace),
		yard:    yard,
		samples: map[string][]float64{},
		counts:  map[string]float64{},
		tails:   map[string]float64{},
	}
	// Every workload swaps in fresh artifact stores; put the process's
	// own back when the run ends.
	defer srctree.SetStore(srctree.ActiveStore())

	var w workload
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		w, err = newW(dir)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.Workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		fmt.Fprintf(cfg.Log, "%s: setup %d/%d took %.3fs\n", cfg.Workload, i+1, setups, setupTimes[i])
		r.yard.keepUp()
	}
	defer w.close()

	res := &Result{Workload: cfg.Workload, Correct: true}
	// Warm-up: discarded steps until a tenth of the budget (at most a
	// second) has passed, at least one.
	warm := math.Min(1, cfg.Seconds/10)
	t0 := time.Now()
	n := 0
	for ; n == 0 || time.Since(t0).Seconds() < warm; n++ {
		if err := w.step(r); err != nil {
			res.Correct, res.Problem = false, err.Error()
			return res, nil
		}
	}
	fmt.Fprintf(cfg.Log, "%s: warm-up %d steps in %.3fs\n", cfg.Workload, n, time.Since(t0).Seconds())

	runtime.GC()
	r.measuring = true
	cpu0 := readCPU()
	var steps []stepTime
	var stepWall time.Duration
	t0 = time.Now()
	for n = 0; n == 0 || time.Since(t0).Seconds() < cfg.Seconds; n++ {
		ok0, off0 := r.attempted-r.failed, r.offClockTime
		ts := time.Now()
		err := w.step(r)
		d := time.Since(ts) - (r.offClockTime - off0)
		steps = append(steps, stepTime{ok: r.attempted - r.failed - ok0, d: d})
		stepWall += d
		if err != nil {
			res.Correct, res.Problem = false, err.Error()
			break
		}
	}
	elapsed := time.Since(t0)
	cpu1 := readCPU()
	r.measuring = false
	res.Slowdown = r.yard.slowdown()
	fmt.Fprintf(cfg.Log, "%s: measured %d ops (%d failed) in %.3fs wall, %.3fs of steps; host %.3fx slower than nominal\n",
		cfg.Workload, r.attempted, r.failed, elapsed.Seconds(), stepWall.Seconds(), res.Slowdown)
	for k, xs := range r.yard.samples {
		fmt.Fprintf(cfg.Log, "%s: yardstick %s: %d runs, median %.4fms\n", cfg.Workload, yardKernels[k].name, len(xs), median(xs))
	}

	res.Attempted, res.Failed = r.attempted, r.failed
	m := map[string]float64{}
	res.Percentiles = r.tails
	res.Samples = map[string]int{}
	for name, xs := range r.samples {
		res.Samples[name] = len(xs)
	}
	m["setup_s"] = median(setupTimes)
	m["ops_per_s"] = throughput(steps)
	m["peak_rss_mb"] = peakRSSMiB()
	if r.attempted > 0 {
		m["failed_frac"] = float64(r.failed) / float64(r.attempted)
		m["go.allocs_per_op"] = r.counts["go.allocs"] / float64(r.attempted)
		m["srctree.unit_compiles_per_op"] = r.counts["srctree.unit_misses"] / float64(r.attempted)
	}
	if n := r.counts["srctree.unit_hits"] + r.counts["srctree.unit_misses"]; n > 0 {
		m["store.unit_hit_frac"] = r.counts["srctree.unit_hits"] / n
	}
	if busy := cpu1.total - cpu0.total - (cpu1.idle - cpu0.idle); busy > 0 {
		m["go.gc_cpu_frac"] = (cpu1.gc - cpu0.gc) / busy
	}
	if r.rec.tr != nil {
		m["trace.coverage"] = r.rec.coverage()
	}
	w.report(r, m)

	for _, s := range EndToEnd {
		res.EndToEnd = append(res.EndToEnd, Metric{Name: s.Name, Value: atNominalSpeed(m[s.Name], s.Unit, res.Slowdown), Unit: s.Unit})
	}
	for _, s := range PerLayer {
		res.PerLayer = append(res.PerLayer, Metric{Name: s.Name, Value: atNominalSpeed(m[s.Name], s.Unit, res.Slowdown), Unit: s.Unit})
	}
	if cfg.Trace && cfg.TraceOut != "" {
		if err := r.rec.writeTrace(cfg.TraceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// op runs one timed operation, adding its wall time (ms) to the kind's
// latency series, then gives the yardstick its turn. An error counts the
// op as failed, not the run as incorrect: the caller checks outputs only
// of ops that succeeded.
func (r *runner) op(kind string, fn func(root layer) error) error {
	var c0 srctree.CacheCounters
	var a0 uint64
	if r.measuring {
		c0, a0 = srctree.Counters(), allocs()
	}
	root := r.rec.root(kind)
	err := fn(root)
	d := root.end()
	if terr := r.rec.endOp(r.measuring); terr != nil && err == nil {
		err = terr
	}
	defer r.offClock(r.yard.keepUp) // after the op's counters are read
	if !r.measuring {
		return err
	}
	c := srctree.Counters()
	r.counts["go.allocs"] += float64(allocs() - a0)
	r.counts["srctree.unit_hits"] += float64(c.UnitHits + c.UnitDiskHits - c0.UnitHits - c0.UnitDiskHits)
	r.counts["srctree.unit_misses"] += float64(c.UnitMisses - c0.UnitMisses)
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.cfg.Log, "%s: %s op failed: %v\n", r.cfg.Workload, kind, err)
		return err
	}
	r.sample(kind, ms(d))
	return nil
}

// release deals the next release from seeded shuffles of all of them, so
// every stretch of a run holds the releases in near-equal measure and the
// seeded mix does not move the run's medians.
func (r *runner) release() string {
	if len(r.deck) == 0 {
		for _, i := range r.rng.Perm(len(cvedb.Versions)) {
			r.deck = append(r.deck, cvedb.Versions[i])
		}
	}
	v := r.deck[0]
	r.deck = r.deck[1:]
	return v
}

// offClock runs the benchmark's own work inside a step — a machine's
// deliberately killed first life, a kernel memory hash for an oracle —
// off the step's clock, so ops_per_s counts only the system's work.
func (r *runner) offClock(fn func()) {
	t0 := time.Now()
	fn()
	r.offClockTime += time.Since(t0)
}

// sample appends to a latency series (measured ops only).
func (r *runner) sample(series string, v float64) {
	if r.measuring {
		r.samples[series] = append(r.samples[series], v)
	}
}

// count adds to a per-layer count (measured ops only).
func (r *runner) count(name string, v float64) {
	if r.measuring {
		r.counts[name] += v
	}
}

// ops is how many measured ops of the given kinds succeeded.
func (r *runner) ops(kinds ...string) int {
	n := 0
	for _, k := range kinds {
		n += len(r.samples[k])
	}
	return n
}

// p50 is the median of the named series.
func (r *runner) p50(series string) float64 { return median(r.samples[series]) }

// all concatenates series.
func (r *runner) all(series ...string) []float64 {
	var out []float64
	for _, s := range series {
		out = append(out, r.samples[s]...)
	}
	return out
}

// layerMS is a span name's per-op self time in ms; perOp is the op
// count to divide by.
func (r *runner) layerMS(name string, perOp int) float64 {
	if perOp == 0 {
		return 0
	}
	return ms(r.rec.self[name]) / float64(perOp)
}

// durMS is like layerMS over the span's whole duration, children
// included.
func (r *runner) durMS(name string, perOp int) float64 {
	if perOp == 0 {
		return 0
	}
	return ms(r.rec.dur[name]) / float64(perOp)
}

// per divides a count by an op count.
func (r *runner) per(count string, n int) float64 {
	if n == 0 {
		return 0
	}
	return r.counts[count] / float64(n)
}

// tail sets a tail-percentile metric from a series, clamped to keep
// minTail samples beyond it, and records the percentile used.
func (r *runner) tail(m map[string]float64, metric, series string, want float64) {
	xs := r.samples[series]
	p := tailPercentile(len(xs), want)
	m[metric] = percentile(xs, p)
	if len(xs) > 0 {
		r.tails[metric] = p
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check turns a failed correctness check into the run's fatal error.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("wrong output: "+format, args...)
}

// --- Process-level measurements ---

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocs is the process's cumulative heap allocation count.
func allocs() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

type cpuTimes struct{ gc, idle, total float64 }

// readCPU reads the runtime's CPU-time accounting.
func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuTimes{gc: f(0), idle: f(1), total: f(2)}
}

// peakRSSMiB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total mapped memory where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}
