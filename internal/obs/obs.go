// Package obs is the repository's instrumentation layer: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket histograms
// with a snapshot API), a structured JSONL event emitter for run records,
// Prometheus-text exposition over HTTP, and pprof profiling hooks.
//
// The paper's claims are quantitative — latency degrees Λ, message counts,
// detector suspicions — and this package makes them machine-readable: the
// round engines, the exhaustive explorer and the live runtime all thread
// their counters through a Registry, and emit their runs as typed events
// in one vocabulary that the conformance projector (package conform) reads
// back into round-model runs.
//
// Everything is safe for concurrent use, and every method is nil-receiver
// safe so instrumented code can hold a nil *Registry (or nil metric) to
// mean "disabled" without branching at each call site.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Default is the process-wide registry. Instrumented packages record into
// it unless explicitly configured otherwise; the CLIs expose it over HTTP.
var Default = NewRegistry()

// Label returns name with a {key="value"} label pair appended, merging with
// any label set already present:
//
//	Label("runs_total", "model", "RS")            → runs_total{model="RS"}
//	Label(`m{a="1"}`, "model", "RS")              → m{a="1",model="RS"}
//
// Metric names in this repository carry their labels inline; the Prometheus
// writer splits them back apart at exposition time.
func Label(name, key, value string) string {
	if strings.HasSuffix(name, "}") {
		return fmt.Sprintf("%s,%s=%q}", strings.TrimSuffix(name, "}"), key, value)
	}
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (no-op on a nil counter).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v (no-op on a nil gauge).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Max raises the gauge to v if v exceeds the current value — the high-water
// update used by queue-depth telemetry. Safe under concurrent Max calls; a
// no-op on a nil gauge.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations. Buckets
// are defined by ascending upper bounds; observations above the last bound
// land in an implicit overflow bucket.
type Histogram struct {
	uppers []int64
	counts []atomic.Uint64 // len(uppers)+1; last entry is the overflow bucket
	sum    atomic.Int64
	count  atomic.Uint64
}

// DefaultDurationBuckets are nanosecond buckets spanning 100µs to 10s —
// suitable for per-round wall-clock times in the live runtime.
var DefaultDurationBuckets = []int64{
	100_000, 250_000, 500_000, // 100µs .. 500µs
	1_000_000, 2_500_000, 5_000_000, // 1ms .. 5ms
	10_000_000, 25_000_000, 50_000_000, // 10ms .. 50ms
	100_000_000, 250_000_000, 500_000_000, // 100ms .. 500ms
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000, // 1s .. 10s
}

// Observe records one observation (no-op on a nil histogram).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.uppers), func(i int) bool { return h.uppers[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// snapshot freezes the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Uppers: append([]int64(nil), h.uppers...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a frozen view of a Histogram. Counts has one more
// entry than Uppers; the extra final entry is the overflow bucket.
type HistogramSnapshot struct {
	Uppers []int64
	Counts []uint64
	Count  uint64
	Sum    int64
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) from the buckets.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	return stats.BucketQuantile(s.Uppers, s.Counts, q)
}

// String renders a compact summary with bucket-estimated percentiles.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("count=%d sum=%d p50≤%d p95≤%d p99≤%d",
		s.Count, s.Sum, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
}

// Snapshot is a point-in-time copy of a registry's state.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the snapshotted value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Registry holds named metrics. Metric creation is idempotent: the first
// Counter/Gauge/Histogram call for a name creates it, later calls return
// the same instance. All methods are safe for concurrent use and nil-safe.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (later calls ignore the bounds). A
// nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, uppers []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, uppers))
		}
	}
	if len(uppers) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{
			uppers: append([]int64(nil), uppers...),
			counts: make([]atomic.Uint64, len(uppers)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Snapshot freezes every metric's current value. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Reset drops every metric. Useful for isolating test cases that share the
// Default registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
}
