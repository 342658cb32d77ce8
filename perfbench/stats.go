package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// ascending samples, or 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps p·n/100 that is whole in exact arithmetic from
	// rounding up to the next rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	rank = max(1, min(n, rank))
	return sorted[rank-1]
}

// tailPercentile is the tail latency percentile reported. On a host
// whose hypervisor steals CPU time from the guest, p99 measures mostly the
// host's preemptions and moves by more than any bound worth gating on;
// p95 still shows the program's own queueing, lock waits and pauses.
const tailPercentile = 95

// tail returns the highest nearest-rank percentile, at most
// tailPercentile, that leaves at least minBeyond samples above it, with
// its value. With minBeyond samples or fewer no percentile qualifies, and
// tail reports the maximum as p100.
func tail(sorted []float64) (p, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= minBeyond {
		return 100, sorted[n-1]
	}
	rank := (tailPercentile*n + 99) / 100 // ceil(tailPercentile·n/100)
	if rank <= n-minBeyond {
		return tailPercentile, sorted[rank-1]
	}
	rank = n - minBeyond
	return 100 * float64(rank) / float64(n), sorted[rank-1]
}

// quartiles returns the three cut points of values into four groups by
// the method Python's statistics.quantiles(values, n=4) uses by default
// ("exclusive"), so spreads computed here match the ones computed from
// the result lines. It needs at least two values; with one it returns
// that value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median returns the middle of values (the mean of the middle two for an
// even count), or 0 when there are none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the distance between the first and third quartiles as a share
// of the median, or 0 when the median is 0.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// latencies accumulates durations for percentile reporting.
type latencies []float64 // milliseconds

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// summary sorts the samples and returns the median, the tail percentile
// and its value, and the sample count.
func (l latencies) summary() (p50, tailP, tailV float64, n int) {
	sort.Float64s(l)
	tailP, tailV = tail(l)
	return percentile(l, 50), tailP, tailV, len(l)
}

// ratio is num/den, or 0 when den is 0 — for per-unit figures of a layer
// that did no work in this workload.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
