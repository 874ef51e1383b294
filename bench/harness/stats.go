package harness

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: a p99 of 200 samples rests on two values, so the harness
// reports the highest percentile that still has minTail samples above it.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// Multiply before dividing so whole percentiles of whole counts rank
	// exactly (95/100*200 rounds to 190.00000000000003 and would ceil
	// to 191).
	rank := int(math.Ceil(p * float64(len(xs)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tailPercentile clamps a requested tail percentile to the highest whole
// percentile that leaves at least minTail of n samples beyond its rank,
// never going below the median.
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	// With nearest rank r = ceil(p*n/100), n-r samples lie beyond it;
	// n-r >= minTail holds for every p <= 100*(n-minTail)/n.
	p := math.Floor(100 * float64(n-minTail) / float64(n))
	if p > want {
		p = want
	}
	if p < 50 {
		p = 50
	}
	return p
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// stepTime is one measured step: how many of its ops succeeded and the
// step's wall time, less the benchmark's own work (runner.offClock).
type stepTime struct {
	ok int
	d  time.Duration
}

// throughputChunks is how many contiguous stretches of steps throughput
// takes its median over.
const throughputChunks = 10

// throughput is successful ops per second of step time — the closed
// loop's work between ops included — taken as the median over
// throughputChunks contiguous stretches of whole steps: a
// burst of contention from outside the process that slows a few
// stretches does not move it, and whole steps keep each stretch's mix
// of op kinds (a create pass's one cold build, a subscribe cycle's
// recovery) the same.
func throughput(steps []stepTime) float64 {
	k := throughputChunks
	if len(steps) < k {
		k = len(steps)
	}
	var rates []float64
	for i := 0; i < k; i++ {
		var ok int
		var d time.Duration
		for _, s := range steps[i*len(steps)/k : (i+1)*len(steps)/k] {
			ok += s.ok
			d += s.d
		}
		if d > 0 {
			rates = append(rates, float64(ok)/d.Seconds())
		}
	}
	return median(rates)
}
