package explore

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// fingerprint canonicalizes a run into a string that determines it
// completely: initial values, per-round crash/reach/drop observations via
// Sent/Reached, and the decision profile. Two runs are the same adversary
// behaviour iff their fingerprints match, so comparing multisets of
// fingerprints compares visited run sets exactly. Process sets print as
// hex bitmasks (bit i-1 is process i): the n=4 t=2 sweeps take one per
// run, so the process sets skip fmt.
func fingerprint(run *rounds.Run) string {
	b := fmt.Appendf(nil, "%s/%v n=%d t=%d init=%v trunc=%v", run.Algorithm, run.Model, run.N, run.T, run.Initial, run.Truncated)
	set := func(s model.ProcSet) { b = strconv.AppendUint(b, uint64(s), 16) }
	for _, rec := range run.Rounds {
		b = append(b, "|r"...)
		b = strconv.AppendInt(b, int64(rec.Round), 10)
		b = append(b, " a="...)
		set(rec.AliveStart)
		b = append(b, " c="...)
		set(rec.Crashed)
		for p := 1; p <= run.N; p++ {
			if rec.AliveStart.Has(model.ProcessID(p)) {
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(p), 10)
				b = append(b, ':')
				set(rec.Sent[p])
				b = append(b, '>')
				set(rec.Reached[p])
			}
		}
	}
	b = fmt.Appendf(b, "|cr=%v dec=%v val=%v", run.CrashRound, run.DecidedAt, run.DecisionOf)
	return string(b)
}

// collect explores the space with the given worker count and returns the
// sorted fingerprint multiset plus the stats.
func collect(t *testing.T, kind rounds.ModelKind, alg rounds.Algorithm, initial []model.Value, tol, workers int) ([]string, Stats) {
	t.Helper()
	var mu sync.Mutex
	var fps []string
	stats, err := Runs(kind, alg, initial, tol, Options{Workers: workers}, func(run *rounds.Run) bool {
		fp := fingerprint(run)
		mu.Lock()
		fps = append(fps, fp)
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatalf("Runs(workers=%d): %v", workers, err)
	}
	sort.Strings(fps)
	return fps, stats
}

// TestParallelEquivalence is the tentpole property: exploration with 1, 2
// and GOMAXPROCS workers visits exactly the same multiset of runs as the
// sequential DFS, with identical Stats, for FloodSet and A1 in both models.
// A1 only exists for t = 1 (its message pattern hard-codes one silence
// tolerance and the constructor panics otherwise), so the t=2 rows use the
// FloodSet family, which is defined for every t.
func TestParallelEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		kind    rounds.ModelKind
		alg     rounds.Algorithm
		initial []model.Value
		tol     int
	}{
		{"FloodSet/RS/n3t1", rounds.RS, consensus.FloodSet{}, binCfg(0, 1, 1), 1},
		{"FloodSetWS/RWS/n3t1", rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1), 1},
		{"A1/RS/n3t1", rounds.RS, consensus.A1{}, binCfg(0, 1, 1), 1},
		{"A1/RWS/n3t1", rounds.RWS, consensus.A1{}, binCfg(0, 1, 1), 1},
		{"A1/RS/n4t1", rounds.RS, consensus.A1{}, binCfg(0, 1, 1, 0), 1},
		{"FloodSet/RS/n4t2", rounds.RS, consensus.FloodSet{}, binCfg(0, 1, 1, 0), 2},
		{"FloodSetWS/RWS/n4t2", rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1, 0), 2},
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.Contains(tc.name, "n4t2") {
				t.Skip("large space in -short mode")
			}
			seqFPs, seqStats := collect(t, tc.kind, tc.alg, tc.initial, tc.tol, 0)
			if len(seqFPs) == 0 {
				t.Fatal("sequential exploration visited no runs")
			}
			for _, w := range workerCounts {
				parFPs, parStats := collect(t, tc.kind, tc.alg, tc.initial, tc.tol, w)
				if parStats != seqStats {
					t.Errorf("workers=%d stats = %+v, sequential = %+v", w, parStats, seqStats)
				}
				if len(parFPs) != len(seqFPs) {
					t.Fatalf("workers=%d visited %d runs, sequential %d", w, len(parFPs), len(seqFPs))
				}
				for i := range seqFPs {
					if parFPs[i] != seqFPs[i] {
						t.Fatalf("workers=%d: visited multiset diverges at element %d:\n  par: %s\n  seq: %s",
							w, i, parFPs[i], seqFPs[i])
					}
				}
			}
		})
	}
}

// referenceDFS walks the run space with its own depth-first recursion —
// plans in EnumeratePlans order, the last branch reusing its parent's
// engine — and returns the fingerprints in visit order with the Stats
// that walk implies.
func referenceDFS(t *testing.T, kind rounds.ModelKind, alg rounds.Algorithm, initial []model.Value, tol int) ([]string, Stats) {
	t.Helper()
	root, err := rounds.NewEngine(kind, alg, initial, tol, rounds.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	var st Stats
	var rec func(eng *rounds.Engine)
	rec = func(eng *rounds.Engine) {
		if (eng.Done() && eng.Obligated().Empty()) || eng.Round() >= rounds.DefaultRoundLimit(eng.T()) {
			run, err := eng.Execute(rounds.NoFailures, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !eng.Obligated().Empty() {
				run.Truncated = true
			}
			st.Runs++
			if run.Truncated {
				st.Truncated++
			}
			fps = append(fps, fingerprint(run))
			return
		}
		plans := EnumeratePlans(eng.NextView(), 0)
		st.Plans += len(plans)
		for i, plan := range plans {
			branch := eng
			if i < len(plans)-1 {
				if branch, err = eng.Clone(); err != nil {
					t.Fatal(err)
				}
				st.Clones++
			}
			scripted := plan
			if err := branch.Step(rounds.AdversaryFunc(func(*rounds.View) rounds.Plan { return scripted })); err != nil {
				t.Fatal(err)
			}
			rec(branch)
		}
	}
	rec(root)
	return fps, st
}

// TestWidthOneVisitsDepthFirst pins the one-worker pool to plain
// depth-first order: Workers 0 and 1 visit exactly the reference DFS's
// fingerprint sequence, report its Stats, and start no goroutine.
func TestWidthOneVisitsDepthFirst(t *testing.T) {
	cases := []struct {
		name    string
		kind    rounds.ModelKind
		alg     rounds.Algorithm
		initial []model.Value
		tol     int
	}{
		{"FloodSet/RS/n4t2", rounds.RS, consensus.FloodSet{}, binCfg(0, 1, 1, 0), 2},
		{"FloodSetWS/RWS/n4t2", rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1, 0), 2},
		{"A1/RS/n3t1", rounds.RS, consensus.A1{}, binCfg(0, 1, 1), 1},
		{"A1/RWS/n3t1", rounds.RWS, consensus.A1{}, binCfg(0, 1, 1), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.Contains(tc.name, "n4t2") {
				t.Skip("large space in -short mode")
			}
			want, wantStats := referenceDFS(t, tc.kind, tc.alg, tc.initial, tc.tol)
			for _, w := range []int{0, 1} {
				var got []string
				before := runtime.NumGoroutine()
				peak := before
				stats, err := Runs(tc.kind, tc.alg, tc.initial, tc.tol, Options{Workers: w, Metrics: obs.NewRegistry()}, func(run *rounds.Run) bool {
					got = append(got, fingerprint(run))
					if g := runtime.NumGoroutine(); g > peak {
						peak = g
					}
					return true
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if peak != before {
					t.Errorf("workers=%d: %d goroutines while visiting, %d before", w, peak, before)
				}
				if stats != wantStats {
					t.Errorf("workers=%d stats = %+v, reference DFS = %+v", w, stats, wantStats)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d visited %d runs, reference DFS %d", w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: visit %d differs from the reference DFS:\n  got:  %s\n  want: %s", w, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestParallelEarlyStop: a visitor returning false must be invoked exactly
// once more in total (the lockedVisitor contract) and stop every worker,
// with a nil error — the parallel analog of "stop at the first
// counterexample".
func TestParallelEarlyStop(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		var calls atomic.Int64
		_, err := Runs(rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1), 1, Options{Workers: w}, func(*rounds.Run) bool {
			calls.Add(1)
			return false
		})
		if err != nil {
			t.Fatalf("workers=%d: early stop should return nil, got %v", w, err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("workers=%d: visitor called %d times after returning false, want exactly 1", w, got)
		}
	}
}

// TestExploreMergesVisitors drives the merge-friendly Explore entry point
// directly: per-worker counting visitors must fold into the sequential
// total.
type countVisitor struct {
	runs, truncated int
	latencySum      int
}

func (v *countVisitor) Visit(run *rounds.Run) bool {
	v.runs++
	if run.Truncated {
		v.truncated++
		return true
	}
	if l, ok := run.Latency(); ok {
		v.latencySum += l
	}
	return true
}

func (v *countVisitor) Merge(o Visitor) {
	ov := o.(*countVisitor)
	v.runs += ov.runs
	v.truncated += ov.truncated
	v.latencySum += ov.latencySum
}

func TestExploreMergesVisitors(t *testing.T) {
	mk := func() Visitor { return &countVisitor{} }
	seqStats, seqV, err := Explore(rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1), 1, Options{}, mk)
	if err != nil {
		t.Fatal(err)
	}
	seq := seqV.(*countVisitor)
	if seq.runs != seqStats.Runs {
		t.Fatalf("sequential visitor saw %d runs, stats say %d", seq.runs, seqStats.Runs)
	}
	for _, w := range []int{1, 2, 4} {
		parStats, parV, err := Explore(rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1), 1, Options{Workers: w}, mk)
		if err != nil {
			t.Fatal(err)
		}
		par := parV.(*countVisitor)
		if *par != *seq {
			t.Errorf("workers=%d merged visitor %+v, sequential %+v", w, *par, *seq)
		}
		if parStats != seqStats {
			t.Errorf("workers=%d stats %+v, sequential %+v", w, parStats, seqStats)
		}
	}
}

// TestParallelMetricsConverge: after a parallel exploration the registry
// counters equal the stats exactly.
func TestParallelMetricsConverge(t *testing.T) {
	reg := obs.NewRegistry()
	stats, err := Runs(rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1), 1, Options{Workers: 4, Metrics: reg}, func(*rounds.Run) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricRuns).Value(); got != int64(stats.Runs) {
		t.Errorf("%s = %d, stats.Runs = %d", MetricRuns, got, stats.Runs)
	}
	if got := reg.Counter(MetricPlans).Value(); got != int64(stats.Plans) {
		t.Errorf("%s = %d, stats.Plans = %d", MetricPlans, got, stats.Plans)
	}
	if got := reg.Counter(MetricForks).Value(); got != int64(stats.Clones) {
		t.Errorf("%s = %d, stats.Clones = %d", MetricForks, got, stats.Clones)
	}
	if got := reg.Counter(MetricTruncated).Value(); got != int64(stats.Truncated) {
		t.Errorf("%s = %d, stats.Truncated = %d", MetricTruncated, got, stats.Truncated)
	}
}

// TestMaxCrashesCapIncludesObligated is the regression test for the cap
// bug: in RWS a dropper is obligated to crash in the next round, and the
// old cap applied only to the *extra* crash set on top of the obligation,
// so MaxCrashesPerRound=1 still admitted rounds introducing 2 crashes
// (1 obligated + 1 extra). The cap now counts every new crash.
func TestMaxCrashesCapIncludesObligated(t *testing.T) {
	// n=4, t=2 gives enough budget for an obligated crasher and an extra
	// one in the same round if the cap fails to include the obligation.
	// A round legitimately crashes more than the cap only when the
	// obligations alone exceed it (two droppers in one round must both
	// crash in the next) — and then it crashes *exactly* the obligated set,
	// with no extra crashers on top.
	const cap = 1
	sawObligated := false
	_, err := Runs(rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1, 0), 2,
		Options{MaxCrashesPerRound: cap}, func(run *rounds.Run) bool {
			for i, rec := range run.Rounds {
				// A completer whose message missed some addressee in the
				// previous round dropped it, and is obligated to crash now.
				var obligated model.ProcSet
				if i > 0 {
					prev := run.Rounds[i-1]
					survivors := prev.AliveStart.Minus(prev.Crashed)
					// Reached is trimmed to survivors, so a completer
					// dropped iff it reached fewer than its surviving
					// addressees.
					survivors.ForEach(func(q model.ProcessID) bool {
						if prev.Reached[q] != prev.Sent[q].Intersect(survivors) {
							obligated = obligated.Add(q)
						}
						return true
					})
				}
				if !obligated.Empty() {
					sawObligated = true
				}
				if !obligated.Subset(rec.Crashed) {
					t.Fatalf("round %d crashed %v but obligation %v was not discharged", rec.Round, rec.Crashed, obligated)
				}
				extras := rec.Crashed.Minus(obligated).Count()
				if obligated.Count()+extras > cap && extras > 0 {
					t.Fatalf("MaxCrashesPerRound=%d violated: round %d crashed %v (%d obligated + %d extra)",
						cap, rec.Round, rec.Crashed, obligated.Count(), extras)
				}
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sawObligated {
		t.Fatal("test never exercised an obligated round — it proves nothing about the cap")
	}
}

// TestMaxCrashesCapNeverBelowObligated: an obligated process must crash
// even when the cap is smaller than the obligation, so capped exploration
// still discharges every obligation (no spurious truncated prefixes).
func TestMaxCrashesCapNeverBelowObligated(t *testing.T) {
	v := &rounds.View{
		Round: 2, N: 3, T: 2, Model: rounds.RWS,
		Alive:       model.FullSet(3),
		FaultySoFar: 0,
		Obligated:   model.Singleton(2),
		Sending:     []model.ProcSet{0, model.FullSet(3), model.FullSet(3), model.FullSet(3)},
	}
	plans := EnumeratePlans(v, 1)
	if len(plans) == 0 {
		t.Fatal("no plans enumerated")
	}
	for _, p := range plans {
		if _, ok := p.Crashes[2]; !ok {
			t.Fatalf("plan %v omits the obligated crasher p2", p)
		}
		if len(p.Crashes) > 1 {
			t.Fatalf("plan %v introduces %d crashes under cap 1 (only the obligated p2 is allowed)", p, len(p.Crashes))
		}
	}
}
