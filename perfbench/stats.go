package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"

	"stashsim/internal/network"
	"stashsim/internal/stats"
)

// cyclesPerNS converts simulated cycles to nanoseconds (1.3 GHz switch
// clock, as cmd/stashsim reports).
const cyclesPerNS = 1.3

// digest hashes the simulated results of a run so far: switch counters,
// offered and accepted load per class, the measured class's latency
// histogram, fault and delivery totals, and the simulated cycle count.
// Two runs of the same inputs must produce the same digest whatever the
// worker count, tracing or checkpointing.
func digest(n *network.Network, w *Workload, cycles int64) uint64 {
	h := fnv.New64a()
	col := n.Collector()
	fmt.Fprintf(h, "%+v|%v|%v|%v|", n.Counters(), col.OfferedFlits, col.DeliveredFlits, col.DeliveredPkts)
	if hist := col.LatHist[w.measured()]; hist != nil {
		fmt.Fprintf(h, "%d|%v|%v|%v|", hist.N(), hist.Mean(), hist.Min(), hist.Max())
		for _, p := range hist.InverseCDF() {
			fmt.Fprintf(h, "%d:%v,", p.Value, p.Fraction)
		}
	}
	injected, delivered, dups, abandoned := n.DeliveryTotals()
	fmt.Fprintf(h, "|%+v|%d|%d|%d|%d|%d|%d", n.FaultStats(), col.EndpointRetransmits,
		injected, delivered, dups, abandoned, cycles)
	return h.Sum64()
}

// percentile returns the p-th percentile (0 < p < 100) of a latency
// histogram, interpolated linearly inside the bucket that holds it. The
// histogram's buckets are 1/32 of a power of two wide, so the bucket
// floor alone would read the same for most seeds; the interpolation
// keeps the estimate continuous in the underlying counts. The estimate
// never exceeds the largest observation.
func percentile(h *stats.Hist, p float64) float64 {
	pts := h.InverseCDF()
	n := float64(h.N())
	if len(pts) == 0 {
		return 0
	}
	target := p / 100 * n
	below := 0.0 // observations in buckets before pts[i]
	for _, pt := range pts {
		upto := math.Round((1 - pt.Fraction) * n)
		if upto >= target {
			hi := float64(bucketLow(bucketOf(pt.Value) + 1))
			return min(float64(pt.Value)+(target-below)/(upto-below)*(hi-float64(pt.Value)), h.Max())
		}
		below = upto
	}
	return h.Max()
}

// bucketOf and bucketLow mirror the bucket layout of stats.Hist (32
// linear sub-buckets per power of two); TestBucketLayoutMatchesHist
// fails if the two disagree.
func bucketOf(v int64) int {
	const sub = 5
	if v < 1<<sub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	s := int(v>>(uint(exp)-sub)) & (1<<sub - 1)
	return (exp-sub+1)<<sub + s
}

func bucketLow(i int) int64 {
	const sub = 5
	if i < 1<<sub {
		return int64(i)
	}
	exp := i>>sub + sub - 1
	s := int64(i & (1<<sub - 1))
	return 1<<uint(exp) + s<<(uint(exp)-sub)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileInt returns the q-quantile (0..1) of xs by nearest rank.
func quantileInt(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k])
}
