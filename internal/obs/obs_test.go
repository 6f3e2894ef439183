package obs

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Error("counter creation not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	snap := r.Snapshot()
	if snap.Counters["c_total"] != 5 || snap.Gauges["g"] != 5 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestScopedCounter: two components' scoped counters keep their own totals
// and add up in the family they share; without a registry they still count.
func TestScopedCounter(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("f_total").Scoped(), r.Counter("f_total").Scoped()
	a.Add(3)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 || r.Counter("f_total").Value() != 4 {
		t.Errorf("a=%d b=%d family=%d, want 3, 1, 4", a.Value(), b.Value(), r.Counter("f_total").Value())
	}
	var nilReg *Registry
	c := nilReg.Counter("f_total").Scoped()
	c.Add(2)
	if c.Value() != 2 {
		t.Errorf("scoped counter without a registry = %d, want 2", c.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z", []int64{1}).Observe(3)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Errorf("nil registry snapshot has %d counters", n)
	}
	var e *Emitter
	e.Emit(Event{Type: EventCrash})
	if err := e.Err(); err != nil {
		t.Errorf("nil emitter err = %v", err)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 11, 50, 200, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 7 || s.Sum != 1+5+10+11+50+200+5000 {
		t.Errorf("count=%d sum=%d", s.Count, s.Sum)
	}
	wantCounts := []uint64{3, 2, 1, 1} // ≤10, ≤100, ≤1000, overflow
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 = %d, want 100 (4th of 7 observations lands in the ≤100 bucket)", q)
	}
	if q := s.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want 1000 (overflow reports the largest finite bound)", q)
	}
}

// TestHistogramTallyFolds: a tally folded twice leaves the histogram exactly
// as observing directly would, shows nothing before its fold, and a nil
// histogram's tally is a no-op.
func TestHistogramTallyFolds(t *testing.T) {
	r := NewRegistry()
	direct, bulk := r.Histogram("direct", []int64{10, 100, 1000}), r.Histogram("bulk", []int64{10, 100, 1000})
	tally := bulk.Tally()
	for i, batch := range [][]int64{{1, 5, 10, 11}, {50, 200, 5000, 5000}} {
		for _, v := range batch {
			direct.Observe(v)
			tally.Observe(v)
		}
		if i == 0 && r.Snapshot().Histograms["bulk"].Count != 0 {
			t.Fatal("a tally reached the histogram before its fold")
		}
		tally.Fold()
	}
	tally.Fold() // an empty fold adds nothing
	s := r.Snapshot()
	if got, want := s.Histograms["bulk"], s.Histograms["direct"]; !reflect.DeepEqual(got, want) {
		t.Errorf("folded %+v, observed directly %+v", got, want)
	}
	var none *Histogram
	nt := none.Tally()
	nt.Observe(1)
	nt.Fold()
}

func TestLabel(t *testing.T) {
	if got := Label("runs_total", "model", "RS"); got != `runs_total{model="RS"}` {
		t.Errorf("Label = %s", got)
	}
	if got := Label(`m{a="1"}`, "b", "2"); got != `m{a="1",b="2"}` {
		t.Errorf("Label merge = %s", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total").Inc()
				r.Histogram("lat", []int64{10, 100}).Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["lat"].Count; got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("ssfd_rounds_runs_total", "model", "RS")).Add(3)
	r.Counter(Label("ssfd_rounds_runs_total", "model", "RWS")).Add(4)
	r.Gauge("ssfd_up").Set(1)
	r.Histogram("ssfd_round_ns", []int64{100, 1000}).Observe(50)
	r.Histogram("ssfd_round_ns", nil).Observe(5000)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ssfd_rounds_runs_total counter",
		`ssfd_rounds_runs_total{model="RS"} 3`,
		`ssfd_rounds_runs_total{model="RWS"} 4`,
		"# TYPE ssfd_up gauge",
		"ssfd_up 1",
		"# TYPE ssfd_round_ns histogram",
		`ssfd_round_ns_bucket{le="100"} 1`,
		`ssfd_round_ns_bucket{le="1000"} 1`,
		`ssfd_round_ns_bucket{le="+Inf"} 2`,
		"ssfd_round_ns_sum 5050",
		"ssfd_round_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The TYPE line for a multi-series family must appear exactly once.
	if n := strings.Count(out, "# TYPE ssfd_rounds_runs_total counter"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1", n)
	}
}

func TestServerServesMetricsAndHealth(t *testing.T) {
	r := NewRegistry()
	r.Counter("ssfd_test_total").Add(42)
	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "ssfd_test_total 42") {
		t.Errorf("/metrics body:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type = %s", ct)
	}

	resp, err = http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz body = %q", body)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	_ = srv.Close() // idempotent

	// A nil registry serves the process-wide Default (closed by the defer
	// above, which reads srv at return).
	Default.Counter("ssfd_test_default_total").Inc()
	srv, err = StartServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ssfd_test_default_total ") {
		t.Errorf("nil-registry /metrics = %d:\n%s", resp.StatusCode, body)
	}
}
