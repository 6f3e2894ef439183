// Package latency computes the time-complexity measures of the paper's
// §5.2 for round-based uniform consensus algorithms, by exhaustively
// exploring the run space of small systems:
//
//   - lat(A)   = min_{r ∈ Run(A,S,t)} |r|                (Schiper's latency degree)
//   - lat(A,C) = min over runs starting from configuration C
//   - Lat(A)   = max_C lat(A,C)
//   - Lat(A,f) = max over runs with at most f crashes
//   - Λ(A)     = min_{0 ≤ f ≤ t} Lat(A,f) = Lat(A,0)     (max over failure-free runs)
//
// |r| is the number of rounds until all correct processes decide.
//
// Initial configurations range over {0,1}^n plus the all-distinct
// configuration (0,1,…,n−1). For every algorithm in this repository the
// run-level behaviour depends only on the equality pattern and relative
// order of the initial values, both of which this family of configurations
// covers.
package latency

import (
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/rounds"
)

// Degrees aggregates every latency measure of one algorithm in one model.
type Degrees struct {
	Algorithm string
	Model     rounds.ModelKind
	N, T      int

	// Lat is lat(A): the minimal latency over all runs.
	Lat int
	// LatMax is Lat(A): the max over initial configurations of the minimal
	// latency from that configuration.
	LatMax int
	// LatByF[f] is Lat(A,f) for f = 0..T: the maximal latency over all runs
	// with at most f crashes.
	LatByF []int
	// Lambda is Λ(A) = min_f Lat(A,f); the paper observes Λ(A) = Lat(A,0).
	Lambda int

	// Runs counts the runs explored; Violations counts runs on which the
	// uniform consensus specification failed (0 for a correct algorithm —
	// latency degrees of an incorrect algorithm are not meaningful, but the
	// count makes the failure visible instead of silent).
	Runs       int
	Violations int
	// Witness is the violating run whose rounds.RenderRun text is least —
	// an order independent of which worker visited what, so it is the same
	// run at every width. Nil when Violations is 0.
	Witness *rounds.Run
}

// String renders the degrees in a compact table-row style.
func (d *Degrees) String() string {
	byF := make([]string, len(d.LatByF))
	for f, v := range d.LatByF {
		byF[f] = fmt.Sprintf("Lat(A,%d)=%d", f, v)
	}
	return fmt.Sprintf("%s/%s n=%d t=%d: lat=%d Lat=%d Λ=%d %s [%d runs]",
		d.Algorithm, d.Model, d.N, d.T, d.Lat, d.LatMax, d.Lambda,
		strings.Join(byF, " "), d.Runs)
}

// Configurations returns the initial configurations the measures quantify
// over: all binary configurations plus the all-distinct one.
func Configurations(n int) [][]model.Value {
	out := make([][]model.Value, 0, (1<<uint(n))+1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		cfg := make([]model.Value, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				cfg[i] = 1
			}
		}
		out = append(out, cfg)
	}
	distinct := make([]model.Value, n)
	for i := range distinct {
		distinct[i] = model.Value(i)
	}
	out = append(out, distinct)
	return out
}

// witness keeps the least violating run under its RenderRun text: a total
// order, so keeping the lesser of two is commutative and associative.
type witness struct {
	run  *rounds.Run
	text string
}

func (w *witness) offer(o witness) {
	if o.run != nil && (w.run == nil || o.text < w.text) {
		*w = o
	}
}

// configVisitor accumulates one configuration's share of the latency
// measures. It implements explore.Visitor with a commutative, associative
// Merge (counts, a minimum, element-wise maxima and the least witness), so
// per-worker instances fold into exactly the one-worker aggregate
// regardless of how the run space was partitioned.
type configVisitor struct {
	runs, violations int
	latCfg           int   // min latency from this configuration, -1 if none
	maxByExactF      []int // max latency over runs with exactly f crashes
	least            witness
}

func newConfigVisitor(t int) *configVisitor {
	return &configVisitor{latCfg: -1, maxByExactF: make([]int, t+1)}
}

func (v *configVisitor) Visit(run *rounds.Run) bool {
	if run.Truncated {
		return true // unfinishable horizon prefix, not a run
	}
	v.runs++
	lat, ok := run.Latency()
	if check.FirstViolation(run) != nil || !ok {
		v.violations++
		v.least.offer(witness{run, rounds.RenderRun(run)})
		return true
	}
	if v.latCfg == -1 || lat < v.latCfg {
		v.latCfg = lat
	}
	f := run.NumFaulty()
	if lat > v.maxByExactF[f] {
		v.maxByExactF[f] = lat
	}
	return true
}

func (v *configVisitor) Merge(other explore.Visitor) {
	o := other.(*configVisitor)
	v.runs += o.runs
	v.violations += o.violations
	v.least.offer(o.least)
	if v.latCfg == -1 || (o.latCfg != -1 && o.latCfg < v.latCfg) {
		v.latCfg = o.latCfg
	}
	for f, m := range o.maxByExactF {
		if m > v.maxByExactF[f] {
			v.maxByExactF[f] = m
		}
	}
}

// Compute explores every admissible run of alg (n processes, resilience t,
// model kind) from every configuration and aggregates the latency measures.
// Each configuration's space is drained by opts.Workers explorer workers
// whose visitors are merged lock-free; the resulting Degrees are identical
// at every width.
func Compute(kind rounds.ModelKind, alg rounds.Algorithm, n, t int, opts explore.Options) (*Degrees, error) {
	d := &Degrees{
		Algorithm: alg.Name(),
		Model:     kind,
		N:         n,
		T:         t,
		Lat:       -1,
		LatByF:    make([]int, t+1),
	}
	maxByExactF := make([]int, t+1)
	var least witness
	for _, cfg := range Configurations(n) {
		_, merged, err := explore.Explore(kind, alg, cfg, t, opts, func() explore.Visitor {
			return newConfigVisitor(t)
		})
		if err != nil {
			return nil, fmt.Errorf("latency: exploring %s/%v from %v: %w", alg.Name(), kind, cfg, err)
		}
		v := merged.(*configVisitor)
		d.Runs += v.runs
		d.Violations += v.violations
		least.offer(v.least)
		if v.latCfg == -1 {
			return nil, fmt.Errorf("latency: %s/%v produced no terminating run from %v", alg.Name(), kind, cfg)
		}
		if d.Lat == -1 || v.latCfg < d.Lat {
			d.Lat = v.latCfg
		}
		if v.latCfg > d.LatMax {
			d.LatMax = v.latCfg
		}
		for f, m := range v.maxByExactF {
			if m > maxByExactF[f] {
				maxByExactF[f] = m
			}
		}
	}
	// Lat(A,f) is monotone in f: max over runs with at most f crashes.
	running := 0
	for f := 0; f <= t; f++ {
		if maxByExactF[f] > running {
			running = maxByExactF[f]
		}
		d.LatByF[f] = running
	}
	// Λ(A) = min_f Lat(A,f); by monotonicity this is Lat(A,0).
	d.Lambda = d.LatByF[0]
	d.Witness = least.run
	return d, nil
}
