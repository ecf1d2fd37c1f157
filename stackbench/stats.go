package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondP99 is the fewest samples that must lie above the reported p99
// for it to mean anything.
const minBeyondP99 = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// how many samples lie strictly beyond its rank.
func percentile(sorted []int64, q float64) (value int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// latencySummary is the caller-side latency distribution of one run.
type latencySummary struct {
	samples   int
	p50, p99  int64 // ns
	beyondP99 int
	supported bool // at least minBeyondP99 samples beyond p99
}

func summarizeLatency(lat []int64) latencySummary {
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := latencySummary{samples: len(sorted)}
	s.p50, _ = percentile(sorted, 0.50)
	s.p99, s.beyondP99 = percentile(sorted, 0.99)
	s.supported = s.beyondP99 >= minBeyondP99
	return s
}

// okFrac is the share of attempted operations that did not fail:
// 1 − failed/attempted. It is reported instead of the failed share so the
// end-to-end metric is never zero.
func okFrac(attempted, failed int64) (float64, error) {
	if attempted <= 0 {
		return 0, fmt.Errorf("no operations attempted")
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("%d failed of %d attempted", failed, attempted)
	}
	return 1 - float64(failed)/float64(attempted), nil
}

// median returns the median of xs (the mean of the middle pair for even
// counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads printed here match the acceptance check's arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// sustained returns the slowest quarter of the repetitions by throughput,
// slowest first, extended until they hold at least minOps requests. The
// host runs bursts well above its sustained speed (up to 1.8x on a 2-vCPU
// VM, for seconds to minutes): across runs, the slowest repetitions'
// throughput varied 4.6% where the median varied 20.6%.
func sustained(reps []*rep, minOps int64) []*rep {
	s := append([]*rep(nil), reps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].slotsPerSec() < s[j].slotsPerSec() })
	k := (len(s) + 3) / 4
	var ops int64
	for _, r := range s[:k] {
		ops += r.c.attempted
	}
	for ; k < len(s) && ops < minOps; k++ {
		ops += s[k].c.attempted
	}
	return s[:k]
}

// groupedP99 splits the repetitions, in run order, into consecutive groups
// holding at least minOps requests each (a shorter remainder is dropped),
// and returns the median of the groups' p99s, the number of groups, and
// the summary of the group with the fewest samples. The median discards
// the groups that caught a host stall, which a single pooled p99 would
// follow.
func groupedP99(reps []*rep, minOps int64) (p99 float64, groups int, least latencySummary) {
	var (
		vals []float64
		cur  []int64
	)
	for _, r := range reps {
		cur = append(cur, r.c.lat...)
		if int64(len(cur)) < minOps {
			continue
		}
		s := summarizeLatency(cur)
		vals = append(vals, float64(s.p99))
		if len(vals) == 1 || s.samples < least.samples {
			least = s
		}
		cur = cur[:0]
	}
	return median(vals), len(vals), least
}
