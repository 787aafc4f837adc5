package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by nearest rank. sorted must be
// non-empty and ascending.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean is the mean of xs without its lowest and highest
// quarter.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartiles of xs with the same
// exclusive method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles: m = n+1, j-th cut at position j*m/4.
		pos := float64(j*(n+1)) / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

// latencySummary holds one latency distribution's order statistics.
type latencySummary struct {
	n        int
	p50, p99 float64 // milliseconds
	mean     float64 // milliseconds
	beyond99 int     // samples strictly above p99
	windowed float64 // interquartile mean of the p99s of consecutive windows of windowLen samples, ms
	windows  int
}

// windowLen is the sample count of one p99 window: ten samples lie beyond
// each window's p99.
const windowLen = 1000

// summarize summarizes lat (nanoseconds, in arrival order). Failed requests
// are stored as math.MaxInt64 so they count as missing any limit. Besides
// the pooled percentiles it reports the windowed p99: the mean of the p99s
// of consecutive windows of windowLen requests, leaving out the highest and
// lowest quarter of windows. Client and server share two vCPUs whose host
// stalls them for milliseconds a few times a second, and andord collects
// garbage several times a second; an open-loop request due during either
// waits it out. Those events touch about 1% of requests, so the pooled p99
// sits on their edge and swings from run to run with how many a run
// catches, and a burst of them (a neighbour busy for seconds) can cover a
// fifth of a run. The windowed p99 moves smoothly with their frequency and
// ignores a burst shorter than a quarter of the run.
func summarize(lat []int64) latencySummary {
	if len(lat) == 0 {
		return latencySummary{}
	}
	var wp []float64
	for lo := 0; lo+windowLen <= len(lat); lo += windowLen {
		hi := lo + windowLen
		if len(lat)-hi < windowLen {
			hi = len(lat)
		}
		w := make([]float64, hi-lo)
		for i, v := range lat[lo:hi] {
			w[i] = float64(v) / float64(time.Millisecond)
		}
		sort.Float64s(w)
		wp = append(wp, quantile(w, 0.99))
	}
	lat = append([]int64(nil), lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	f := make([]float64, len(lat))
	var sum float64
	for i, v := range lat {
		f[i] = float64(v) / float64(time.Millisecond)
		sum += f[i]
	}
	s := latencySummary{n: len(lat), p50: quantile(f, 0.50), p99: quantile(f, 0.99), mean: sum / float64(len(f))}
	for _, v := range f {
		if v > s.p99 {
			s.beyond99++
		}
	}
	s.windowed, s.windows = s.p99, 1
	if len(wp) > 0 {
		s.windowed, s.windows = interquartileMean(wp), len(wp)
	}
	return s
}
