package harness

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark is meant for share their caches and memory
// with other tenants, and their speed drifts with those tenants' load: a
// fixed Go workload's time moved by 30–50% over four minutes on a 2-vCPU
// virtual machine, far more than any bound a regression check could use.
// So a run interleaves a yardstick — five small fixed kernels that stress
// what the workloads stress (random memory reads, dependent loads, map
// operations, sorting, hashing) — with its ops, and reports every time at
// the host speed the kernels' nominal times describe. The kernels are the
// benchmark's own code and allocate nothing while they run.

// yardShare bounds the share of a run's wall time spent on the yardstick.
const yardShare = 0.05

const (
	tableLen = 1 << 21 // uint32 entries: 8 MiB
	bufLen   = 1 << 20 // bytes hashed
)

// yardKernels are the reference kernels, in the order a round runs them,
// each with its nominal time (ms): about what it took right after one of
// the workloads' ops on the 2-vCPU 2.1 GHz Xeon machine the benchmark was
// written on. Only the ratio of measured to nominal matters. The kernels
// and their nominal times are fixed, so a change to the system moves the
// yardstick only through the state of the caches its ops leave behind.
var yardKernels = []struct {
	name    string
	nominal float64
	run     func(y *yardstick) uint64
}{
	{"gather", 1.0, (*yardstick).gather},
	{"chase", 0.8, (*yardstick).chase},
	{"map", 0.6, (*yardstick).mapOps},
	{"sort", 0.65, (*yardstick).sortInts},
	{"hash", 0.8, (*yardstick).hash},
}

// yardSink keeps the kernels' results live.
var yardSink uint64

// yardstick holds the kernels' inputs, allocated once per run, and their
// timings.
type yardstick struct {
	// mem is mapped outside the Go heap and holds table and buf, so the
	// yardstick neither raises the heap size the workload's garbage
	// collector paces itself by nor shows up twice in peak RSS.
	mem      []byte
	table    []uint32 // one random cycle over its indices
	buf      []byte
	m        map[uint32]uint32
	src, dst []int

	start   time.Time
	spent   time.Duration
	rounds  int
	samples [][]float64 // ms, by kernel
}

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, 4*tableLen+bufLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping yardstick memory: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	y := &yardstick{
		mem:     mem,
		table:   unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), tableLen),
		buf:     mem[4*tableLen:],
		m:       make(map[uint32]uint32, 1<<14),
		src:     make([]int, 1<<13),
		dst:     make([]int, 1<<13),
		start:   time.Now(),
		samples: make([][]float64, len(yardKernels)),
	}
	// Sattolo's shuffle makes the table a single cycle, so chase visits
	// every slot before it repeats one.
	for i := range y.table {
		y.table[i] = uint32(i)
	}
	for i := len(y.table) - 1; i > 0; i-- {
		j := rng.Intn(i)
		y.table[i], y.table[j] = y.table[j], y.table[i]
	}
	for i := range y.src {
		y.src[i] = rng.Int()
	}
	rng.Read(y.buf)
	return y, nil
}

// close unmaps the kernels' memory.
func (y *yardstick) close() {
	syscall.Munmap(y.mem)
	y.mem, y.table, y.buf = nil, nil, nil
}

// keepUp runs one round — every kernel once, in order — unless the
// kernels have already had yardShare of the wall time since the run
// began. The runner calls it after every op and every set-up, outside
// their timed windows, so each round starts from the caches an op left
// behind however long the workload's ops take.
func (y *yardstick) keepUp() {
	if y.spent >= time.Duration(yardShare*float64(time.Since(y.start))) {
		return
	}
	for k, kern := range yardKernels {
		t0 := time.Now()
		yardSink += kern.run(y)
		d := time.Since(t0)
		y.spent += d
		y.samples[k] = append(y.samples[k], ms(d))
	}
	y.rounds++
}

// slowdown is how much slower than nominal the host ran during the run:
// the geometric mean over kernels of median measured time over nominal
// time. It is 1 when no round ran.
func (y *yardstick) slowdown() float64 {
	var logSum float64
	n := 0
	for k, xs := range y.samples {
		if len(xs) > 0 {
			logSum += math.Log(median(xs) / yardKernels[k].nominal)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// atNominalSpeed rescales a time or a rate measured on a host running
// slowdown times slower than nominal; other units pass unchanged.
func atNominalSpeed(v float64, unit string, slowdown float64) float64 {
	switch {
	case unit == "s" || unit == "ms" || unit == "us":
		return v / slowdown
	case strings.HasSuffix(unit, "/s"):
		return v * slowdown
	}
	return v
}

// gather sums independent random reads across the table.
func (y *yardstick) gather() uint64 {
	var s uint64
	x := uint32(2463534242)
	for i := 0; i < 1<<16; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s += uint64(y.table[x&(tableLen-1)])
	}
	return s
}

// chase follows the cycle from a new place each round: each read's
// address is the previous read.
func (y *yardstick) chase() uint64 {
	p := y.table[(y.rounds*7919)&(tableLen-1)]
	for i := 0; i < 1<<13; i++ {
		p = y.table[p]
	}
	return uint64(p)
}

// mapOps fills and probes a map that keeps its buckets between rounds.
func (y *yardstick) mapOps() uint64 {
	clear(y.m)
	var s uint64
	x := uint32(y.rounds)
	for i := 0; i < 1<<14; i++ {
		x = x*1664525 + 1013904223
		y.m[x>>10] = x
	}
	for i := 0; i < 1<<14; i++ {
		x = x*1664525 + 1013904223
		s += uint64(y.m[x>>10])
	}
	return s
}

// sortInts sorts a fixed random slice.
func (y *yardstick) sortInts() uint64 {
	copy(y.dst, y.src)
	sort.Ints(y.dst)
	return uint64(y.dst[len(y.dst)/2])
}

// hash digests a fixed buffer.
func (y *yardstick) hash() uint64 {
	s := sha256.Sum256(y.buf)
	return uint64(s[0])
}
