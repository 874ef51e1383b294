// Package telemetry is the unified observability substrate under every
// gosplice subsystem: a dependency-free metrics registry (counters,
// gauges, fixed-bucket histograms — atomic, race-safe, snapshot-able,
// resettable) plus a lightweight span tracer (trace.go) and live
// exposition over HTTP in Prometheus text and JSON forms (expo.go).
//
// The paper evaluates Ksplice by measuring what the system does —
// patch-application latency, stop_machine pauses, per-stage behaviour
// across 64 CVEs. Before this package those measurements lived in four
// incompatible ad-hoc structs readable only after a run completed; now
// every subsystem reports into one registry that can be scraped while
// the system runs.
//
// Metric names follow gosplice_<subsystem>_<name>, with Prometheus
// conventions: counters end in _total, histograms observe seconds,
// gauges name the unit. A metric family may fan out into children by
// label set; children are created on first use and live for the life of
// the registry.
//
// Most subsystems report into the process-wide Default registry.
// Objects that need per-instance accuracy (a Store, a fault-injection
// Plan, a Kernel, a channel Client) own a registry from NewRegistry and
// keep their stats accessors as thin views over its snapshot. Every
// such registry is a child of Default: its metrics are linked to
// Default's metrics of the same id, so each update is summed into
// Default where it is written, and a scrape of Default is the whole
// process — including instances since discarded.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64.
type Counter struct {
	v      atomic.Uint64
	parent *Counter // the same id on the parent registry; nil on Default
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n, here and on every ancestor registry's counter.
func (c *Counter) Add(n uint64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 that may go up and down.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set replaces the value and moves the ancestors' gauges by the
// difference, so a parent holds the sum of its children's values.
func (g *Gauge) Set(v int64) {
	old := g.v.Swap(v)
	g.parent.Add(v - old) // Add is nil-safe: a root gauge has no parent
}

// Add moves the value by delta (negative to decrease), here and on every
// ancestor.
func (g *Gauge) Add(delta int64) {
	for ; g != nil; g = g.parent {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram boundaries, in seconds: they
// span the sub-microsecond guest operations up through multi-second
// builds and boots.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// Histogram counts observations into fixed, ascending bucket
// boundaries. Buckets are cumulative on export (Prometheus `le`
// semantics); internally each slot counts its own range, with one extra
// slot for observations above the last boundary.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	parent  *Histogram
}

// Observe records one value, here and on every ancestor (each into its
// own buckets).
func (h *Histogram) Observe(v float64) {
	for ; h != nil; h = h.parent {
		i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
		h.counts[i].Add(1)
		h.count.Add(1)
		for {
			old := h.sumBits.Load()
			if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
				break
			}
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns how many observations the histogram has seen.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry holds a process- or instance-scoped set of metrics. All
// methods are safe for concurrent use; the metric objects themselves
// are lock-free atomics, so a hot path pays one atomic op per update
// per registry it rolls up into.
//
// Every registry but Default is Default's child: each metric it creates
// is linked to Default's metric with the same id, so every update also
// lands there and Default always holds the process-wide sum.
type Registry struct {
	parent   *Registry
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // family name -> help text
}

// NewRegistry creates an empty registry that rolls up into Default.
func NewRegistry() *Registry { return newRegistry(defaultRegistry) }

func newRegistry(parent *Registry) *Registry {
	return &Registry{
		parent:   parent,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

var defaultRegistry = newRegistry(nil)

// Default is the process-wide registry: subsystems without instances
// report into it directly, and every other registry rolls up into it.
func Default() *Registry { return defaultRegistry }

// metricID renders the canonical child identity: the bare family name,
// or name{k="v",...} with labels sorted by key. Snapshot and exposition
// key children by this string, so it is also the stable sort order.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// familyOf strips the label suffix off a metric id.
func familyOf(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}

// Counter returns (creating on first use) the counter child for
// name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.counter(metricID(name, labels))
}

func (r *Registry) counter(id string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		if r.parent != nil {
			c.parent = r.parent.counter(id)
		}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge child for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.gauge(metricID(name, labels))
}

func (r *Registry) gauge(id string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		if r.parent != nil {
			g.parent = r.parent.gauge(id)
		}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram child for
// name+labels. buckets must be ascending; nil means DefBuckets. The
// bucket boundaries are fixed at first creation — later calls for the
// same child ignore the argument.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return r.histogram(metricID(name, labels), buckets)
}

func (r *Registry) histogram(id string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[id]
	if !ok {
		if buckets == nil {
			buckets = DefBuckets
		}
		h = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Uint64, len(buckets)+1),
		}
		if r.parent != nil {
			h.parent = r.parent.histogram(id, buckets)
		}
		r.hists[id] = h
	}
	return h
}

// Help registers the family's help text for exposition, and on each
// ancestor that has none for the family yet.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
	for p := r.parent; p != nil; p = p.parent {
		p.mu.Lock()
		if _, ok := p.help[name]; !ok {
			p.help[name] = text
		}
		p.mu.Unlock()
	}
}

// Reset zeroes every metric in place (children stay registered, so
// pointers held by instrumented code remain valid). Ancestors keep what
// this registry rolled up into them. For tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
	}
}

// HistogramSnapshot is one histogram's frozen state. Counts are
// per-slot (not cumulative); the final slot counts observations above
// the last bound.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen, JSON-marshalable view of a registry. Keys are canonical metric ids (name{k="v",...}).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Help       map[string]string            `json:"-"`
}

// Snapshot freezes the registry. Counters and gauges are read
// atomically per metric; the snapshot as a whole is not a point-in-time
// cut across metrics, which matters only to tests that hammer metrics
// while snapshotting (they must tolerate per-metric skew, as any live
// scrape does).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Help:       make(map[string]string, len(r.help)),
	}
	for id, c := range r.counters {
		s.Counters[id] = c.Value()
	}
	for id, g := range r.gauges {
		s.Gauges[id] = g.Value()
	}
	for id, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[id] = hs
	}
	for k, v := range r.help {
		s.Help[k] = v
	}
	return s
}

// Counter returns the snapshot's value for an exact metric id (zero
// when absent).
func (s Snapshot) Counter(id string) uint64 { return s.Counters[id] }

// Gauge returns the snapshot's value for an exact metric id.
func (s Snapshot) Gauge(id string) int64 { return s.Gauges[id] }

// CounterFamily sums every child of a counter family.
func (s Snapshot) CounterFamily(name string) uint64 {
	var total uint64
	for id, v := range s.Counters {
		if familyOf(id) == name {
			total += v
		}
	}
	return total
}
