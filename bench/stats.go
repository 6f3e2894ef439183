package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// sample collects int64 observations (nanoseconds unless stated) and answers
// order statistics over them.
type sample struct {
	v      []int64
	sorted bool
}

func (s *sample) add(x int64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *sample) n() int { return len(s.v) }

// pct returns the p-th percentile (nearest rank), 0 for an empty sample.
func (s *sample) pct(p int) int64 {
	if !s.sorted {
		sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
		s.sorted = true
	}
	return stats.PercentileInt64(s.v, p)
}

func (s *sample) max() int64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.pct(100)
}

// percentileLadder is the set of percentiles a report may quote, in tenths
// of a percent.
var percentileLadder = []int{500, 900, 950, 990, 999}

// topPercentile returns the highest percentile of the ladder that still has
// at least ten of n samples beyond it (choosing-metrics §1), 0 when not even
// the median does.
func topPercentile(n int) float64 {
	top := 0
	for _, p := range percentileLadder {
		if n*(1000-p)/1000 >= 10 {
			top = p
		}
	}
	return float64(top) / 10
}

// commit is one committed operation of a window: when it completed, as an
// offset from the window start, and how long it took.
type commit struct {
	at  time.Duration
	lat int64 // nanoseconds
}

// perSecond is a window cut into its whole seconds: commits completed and
// their latency percentiles, second by second. The end-to-end metrics are
// read off these series with steady, not off the window as a whole.
type perSecond struct {
	Commits []float64 `json:"commits"`
	P50us   []float64 `json:"p50_us"`
	P95us   []float64 `json:"p95_us"`
}

// bySecond cuts a window; a trailing partial second is dropped. A window
// shorter than one second is one bucket, scaled to a rate.
func bySecond(commits []commit, window time.Duration) perSecond {
	width := time.Second
	buckets := int(window / width)
	if buckets == 0 {
		buckets, width = 1, window
	}
	if width <= 0 {
		return perSecond{}
	}
	lats := make([]sample, buckets)
	for _, c := range commits {
		if b := int(c.at / width); c.at >= 0 && b < buckets {
			lats[b].add(c.lat)
		}
	}
	var ps perSecond
	for b := range lats {
		n := float64(lats[b].n())
		ps.Commits = append(ps.Commits, n/width.Seconds())
		if n > 0 {
			ps.P50us = append(ps.P50us, float64(lats[b].pct(50))/1e3)
			ps.P95us = append(ps.P95us, float64(lats[b].pct(95))/1e3)
		}
	}
	return ps
}

// steady reads one figure off a per-second series: its quartile on the good
// side — the upper one of a rate, the lower one of a latency. The reference
// container shares its host, and a neighbour only ever slows a second down,
// for a second or for minutes; the good-side quartile is what the code does
// while left alone, and halves the run-to-run spread the median shows. A
// change to the code moves every second, and so moves the quartile as far as
// it moves the median.
func steady(xs []float64, better string) float64 {
	q1, _, q3 := quartiles(xs)
	if better == "higher" {
		return q3
	}
	return q1
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(values, n=4) (exclusive), which is
// what the acceptance driver applies to repeated runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
