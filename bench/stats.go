package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for
// even counts); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileIdx is the nearest-rank index of quantile q in a sorted
// slice of n values.
func quantileIdx(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantileMS returns the nearest-rank quantile of the durations in
// milliseconds. The input is sorted in place.
func quantileMS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return ms(d[quantileIdx(len(d), q)])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quartileSpread is the run-to-run spread rule of the benchmark
// contract: the distance between the first and third quartile (as
// Python's statistics.quantiles(v, n=4) computes them: exclusive
// method) as a share of the median.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := min(max(k*(len(s)+1)/4, 1), len(s)-1)
		delta := k*(len(s)+1) - 4*j // after clamping: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// Fingerprints of answers are built with prand.HashInts; these fold
// the other field types into its int64 words.
func bit(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

func fbits(v float64) int64 { return int64(math.Float64bits(v)) }

// usage is a snapshot of the process counters the harness reads at
// pass and segment boundaries.
type usage struct {
	wall       time.Time
	user, sys  time.Duration
	minFlt     int64
	maxRSSKB   int64
	totalAlloc uint64
	numGC      uint32
}

// readUsage snapshots CPU time and fault counts (getrusage) and, when
// mem is set, the allocator counters (ReadMemStats stops the world, so
// it is only read at pass boundaries).
func readUsage(mem bool) usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.user = time.Duration(ru.Utime.Nano())
		u.sys = time.Duration(ru.Stime.Nano())
		u.minFlt = int64(ru.Minflt)
		u.maxRSSKB = int64(ru.Maxrss)
	}
	if mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		u.totalAlloc, u.numGC = m.TotalAlloc, m.NumGC
	}
	return u
}

func (u usage) cpu() time.Duration { return u.user + u.sys }
