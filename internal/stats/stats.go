// Package stats provides the small numeric and table-rendering helpers the
// experiment drivers use to print paper-shaped results: plain-text tables
// with aligned columns, and summary statistics over integer samples
// (latencies, message counts, steps).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if w := displayWidth(c); w > widths[i] {
				widths[i] = w
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			b.WriteString(cell)
			if i < cols-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-displayWidth(cell)+2))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for i, w := range widths {
		total += w
		if i < cols-1 {
			total += 2
		}
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// displayWidth approximates terminal width: counts runes, not bytes, so the
// Greek/arrow glyphs used in model names align correctly.
func displayWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// Summary holds order statistics of an integer sample.
type Summary struct {
	N             int
	Min, Max      int
	Mean          float64
	P50, P90, P99 int
	StdDev        float64
}

// Summarize computes order statistics. An empty sample yields a zero
// Summary.
func Summarize(sample []int) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := append([]int(nil), sample...)
	sort.Ints(s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	mean := float64(sum) / float64(len(s))
	varsum := 0.0
	for _, v := range s {
		d := float64(v) - mean
		varsum += d * d
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		P50:    percentile(s, 50),
		P90:    percentile(s, 90),
		P99:    percentile(s, 99),
		StdDev: math.Sqrt(varsum / float64(len(s))),
	}
}

// percentile returns the p-th percentile of sorted s (nearest-rank).
func percentile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d max=%d mean=%.2f sd=%.2f",
		s.N, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean, s.StdDev)
}

// Int64Summary holds order statistics of an int64 sample (durations in
// nanoseconds, byte counts, …) — the wider-range sibling of Summary.
type Int64Summary struct {
	N             int
	Min, Max      int64
	Mean          float64
	P50, P95, P99 int64
}

// SummarizeInt64 computes order statistics over an int64 sample. An empty
// sample yields a zero Int64Summary.
func SummarizeInt64(sample []int64) Int64Summary {
	if len(sample) == 0 {
		return Int64Summary{}
	}
	s := append([]int64(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	sum := 0.0
	for _, v := range s {
		sum += float64(v)
	}
	return Int64Summary{
		N:    len(s),
		Min:  s[0],
		Max:  s[len(s)-1],
		Mean: sum / float64(len(s)),
		P50:  PercentileInt64(s, 50),
		P95:  PercentileInt64(s, 95),
		P99:  PercentileInt64(s, 99),
	}
}

// String renders the summary.
func (s Int64Summary) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p95=%d p99=%d max=%d mean=%.2f",
		s.N, s.Min, s.P50, s.P95, s.P99, s.Max, s.Mean)
}

// PercentileInt64 returns the p-th percentile (nearest-rank) of a sorted
// int64 sample.
func PercentileInt64(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// BucketQuantile estimates the q-th quantile (0 < q ≤ 1) of a fixed-bucket
// histogram: uppers are the ascending bucket upper bounds and counts the
// per-bucket observation counts, with counts[len(uppers)] holding the
// overflow bucket. The estimate is the upper bound of the bucket containing
// the nearest-rank observation (the overflow bucket reports the largest
// finite bound). An empty histogram yields 0.
func BucketQuantile(uppers []int64, counts []uint64, q float64) int64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i >= len(uppers) {
				return uppers[len(uppers)-1]
			}
			return uppers[i]
		}
	}
	return uppers[len(uppers)-1]
}
