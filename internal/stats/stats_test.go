package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("title", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("β", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "title" {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(out, "2.500") {
		t.Errorf("float formatting missing: %q", out)
	}
	// Columns must align: "alpha" and "β" rows put values at the same offset.
	var alphaLine, betaLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") {
			alphaLine = l
		}
		if strings.HasPrefix(l, "β") {
			betaLine = l
		}
	}
	if posOf(alphaLine, "1") != posOfRune(betaLine, "2.500") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

// posOf returns the rune index of sub in s.
func posOf(s, sub string) int { return posOfRune(s, sub) }

func posOfRune(s, sub string) int {
	b := strings.Index(s, sub)
	if b < 0 {
		return -1
	}
	return len([]rune(s[:b]))
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %f", s.Mean)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty sample summary = %+v", z)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestSummaryProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]int, len(raw))
		for i, v := range raw {
			sample[i] = int(v)
		}
		s := Summarize(sample)
		sorted := append([]int(nil), sample...)
		sort.Ints(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max &&
			float64(s.Min) <= s.Mean && s.Mean <= float64(s.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeInt64(t *testing.T) {
	if got := SummarizeInt64(nil); got != (Int64Summary{}) {
		t.Errorf("empty sample = %+v, want zero", got)
	}
	sample := make([]int64, 100)
	for i := range sample {
		sample[i] = int64(100 - i) // 100..1, unsorted on purpose
	}
	s := SummarizeInt64(sample)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("n/min/max = %d/%d/%d, want 100/1/100", s.N, s.Min, s.Max)
	}
	if s.Mean != 50.5 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	// Nearest-rank over 1..100: the p-th percentile is exactly p.
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Errorf("p50/p95/p99 = %d/%d/%d, want 50/95/99", s.P50, s.P95, s.P99)
	}
	if got := s.String(); !strings.Contains(got, "p95=95") {
		t.Errorf("String() = %q, missing p95", got)
	}
}

func TestPercentileInt64(t *testing.T) {
	cases := []struct {
		sorted []int64
		p      int
		want   int64
	}{
		{nil, 50, 0},
		{[]int64{7}, 0, 7},   // rank clamps up to 1
		{[]int64{7}, 100, 7}, // and down to len
		{[]int64{1, 2, 3, 4}, 50, 2},
		{[]int64{1, 2, 3, 4}, 51, 3}, // nearest rank rounds up
		{[]int64{1, 2, 3, 4}, 100, 4},
	}
	for _, c := range cases {
		if got := PercentileInt64(c.sorted, c.p); got != c.want {
			t.Errorf("PercentileInt64(%v, %d) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	uppers := []int64{10, 100, 1000}
	// 5 observations ≤10, 3 in (10,100], 2 in (100,1000], 1 overflow.
	counts := []uint64{5, 3, 2, 1}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.0, 10},  // rank clamps to 1
		{0.45, 10}, // rank 5 is the last observation in the first bucket
		{0.5, 100}, // rank 6 lands in the second bucket
		{0.7, 100},
		{0.9, 1000},
		{1.0, 1000}, // overflow reports the largest finite bound
	}
	for _, c := range cases {
		if got := BucketQuantile(uppers, counts, c.q); got != c.want {
			t.Errorf("BucketQuantile(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := BucketQuantile(uppers, []uint64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram = %d, want 0", got)
	}
	if got := BucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("no buckets = %d, want 0", got)
	}
}
