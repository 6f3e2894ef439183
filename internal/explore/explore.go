// Package explore enumerates every admissible run of a round-based
// algorithm over a bounded horizon: every crash pattern, every partial
// broadcast and (in RWS) every pending-message choice the model's adversary
// may make. Exhaustiveness over small systems is how this repository turns
// the paper's universally quantified claims — worst-case latencies, the
// impossibility of round-1 decisions in RWS, disagreement counterexamples —
// into mechanically checked facts.
//
// The enumeration is canonical: choices that no surviving process can
// observe (deliveries to a process crashing in the same round, drops
// addressed to same-round crashers) are not branched on, which prunes the
// space without losing any distinguishable behaviour.
//
// Every exploration drains the space over one worker pool (see
// parallel.go). At width one the single worker runs on the caller's
// goroutine and never forks, so runs are visited in plain depth-first
// order; wider pools fork the DFS at shallow adversary choice points and
// merge per-worker visitor state into the same aggregate.
package explore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// Options bounds an exploration.
type Options struct {
	// MaxRounds bounds the horizon (0 means the engine's default limit).
	MaxRounds int
	// MaxCrashesPerRound caps how many new crashes a single round may
	// introduce, counting crashes forced by weak-round-synchrony obligations
	// (0 means no cap beyond the budget t). A round never crashes fewer
	// processes than its obligated set — those must crash regardless of the
	// cap — but with the cap at c it crashes at most max(c, |Obligated|).
	// The paper's scenarios never need more than t simultaneous crashes, but
	// capping to 1 can shrink large searches.
	MaxCrashesPerRound int
	// ExpectedRuns is the anticipated size of the run space, used only to
	// derive Progress.Expected/ETA (a prior sweep at the same parameters is
	// the usual source). It never bounds the exploration.
	ExpectedRuns int

	// Workers sizes the worker pool: 0 and 1 mean one worker, which runs
	// on the caller's goroutine and visits runs in depth-first order; n > 1
	// drains the same space over n workers; any negative value uses one
	// worker per CPU (GOMAXPROCS). The visited run *multiset* is identical
	// at every width — only the visit order is schedule-dependent above
	// one. Callers that aggregate across runs should use Explore with a
	// merge-friendly Visitor; plain Runs visitors are serialized through a
	// mutex.
	Workers int

	// Metrics receives the exploration counters (runs, plans, forks,
	// truncated runs) and the forked engines' round counters. Nil uses the
	// process-wide obs.Default registry. The explorer counters receive the
	// exploration's totals once, after the pool drains.
	Metrics *obs.Registry
	// Progress, when non-nil, is invoked every ProgressEvery complete runs
	// with the exploration's pace (runs/sec, current depth). Long exhaustive
	// searches use it to show liveness without flooding output. Over
	// several workers the callback is serialized but may be invoked from
	// any worker.
	Progress func(Progress)
	// ProgressEvery is the run interval between Progress callbacks;
	// values < 1 default to 1000.
	ProgressEvery int
}

// workerCount resolves Options.Workers: 0 = one worker, negative = one per
// CPU.
func (o Options) workerCount() int {
	switch {
	case o.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case o.Workers == 0:
		return 1
	}
	return o.Workers
}

// forkRounds bounds how deep a multi-worker pool forks branches onto the
// shared queue instead of recursing in-worker. Shallow forking keeps queue
// traffic low; the first two rounds of any nontrivial space already yield
// far more branches than workers.
const forkRounds = 2

// Stats summarizes an exploration: the pool's shared totals, identical at
// every width.
type Stats struct {
	Runs      int // complete runs visited
	Plans     int // adversary plans expanded
	Clones    int // engine forks performed
	Truncated int // runs cut by the horizon before completing
}

// String renders the stats.
func (s Stats) String() string {
	out := fmt.Sprintf("%d runs, %d plans, %d forks", s.Runs, s.Plans, s.Clones)
	if s.Truncated > 0 {
		out += fmt.Sprintf(", %d truncated", s.Truncated)
	}
	return out
}

// Visit is called for every complete run. Returning false stops the
// exploration immediately (used to stop at the first counterexample).
type Visit func(*rounds.Run) bool

// Visitor is the merge-friendly visitor contract of the worker pool.
// Each worker owns a private Visitor and feeds it runs without any
// synchronization; when the space is drained the per-worker states are
// folded together with Merge (in worker order, so the fold is
// deterministic given the partition). Implementations must make Merge
// associative and commutative over disjoint run sets — counts, minima,
// maxima and multisets all qualify — because which worker sees which run
// is schedule-dependent.
//
// Visit returning false stops every worker promptly; at width one the
// visited runs are then exactly a prefix of the depth-first order.
type Visitor interface {
	Visit(*rounds.Run) bool
	Merge(Visitor)
}

// lockedVisitor adapts a plain Visit for concurrent use: one instance is
// shared by every worker and serializes calls through a mutex. Once the
// function returns false no further calls are made, so "stop at the first
// counterexample" visits exactly one witness even under parallelism.
type lockedVisitor struct {
	mu      sync.Mutex
	f       Visit
	stopped bool
}

func (v *lockedVisitor) Visit(run *rounds.Run) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		return false
	}
	if !v.f(run) {
		v.stopped = true
		return false
	}
	return true
}

func (v *lockedVisitor) Merge(Visitor) {}

// Runs enumerates every admissible run of alg from the given initial
// configuration and invokes visit on each. The algorithm's processes must
// implement rounds.Cloner. Every worker shares one visit, serialized
// through a mutex, so prefer Explore with a per-worker Visitor for heavy
// aggregation over several workers.
func Runs(kind rounds.ModelKind, alg rounds.Algorithm, initial []model.Value, t int, opts Options, visit Visit) (Stats, error) {
	var mk func() Visitor
	if visit != nil {
		shared := &lockedVisitor{f: visit}
		mk = func() Visitor { return shared }
	}
	stats, _, err := Explore(kind, alg, initial, t, opts, mk)
	return stats, err
}

// Explore enumerates the same space as Runs with a merge-friendly visitor:
// mkVisitor is invoked once per worker and the worker-local states are
// merged after the pool drains. The merged Visitor is returned so callers
// can read their aggregate out of it. A nil mkVisitor explores without
// visiting (useful for counting).
func Explore(kind rounds.ModelKind, alg rounds.Algorithm, initial []model.Value, t int, opts Options, mkVisitor func() Visitor) (Stats, Visitor, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default
	}
	engineOpts := []rounds.Option{rounds.WithMetrics(reg)}
	if opts.MaxRounds > 0 {
		engineOpts = append(engineOpts, rounds.WithRoundLimit(opts.MaxRounds))
	}
	root, err := rounds.NewEngine(kind, alg, initial, t, engineOpts...)
	if err != nil {
		return Stats{}, nil, err
	}
	if opts.Progress != nil && opts.ProgressEvery < 1 {
		opts.ProgressEvery = 1000
	}
	sh := &shared{start: time.Now(), expected: opts.ExpectedRuns}
	merged, err := drain(root, opts, sh, mkVisitor, opts.workerCount())
	stats := sh.stats()
	reg.Counter(MetricRuns).Add(int64(stats.Runs))
	reg.Counter(MetricPlans).Add(int64(stats.Plans))
	reg.Counter(MetricForks).Add(int64(stats.Clones))
	reg.Counter(MetricTruncated).Add(int64(stats.Truncated))
	return stats, merged, err
}

// errStopped signals that the visitor requested an early stop.
var errStopped = errors.New("explore: stopped by visitor")

// explorer is one worker's view of an exploration: a private visitor,
// plus the pool and the state every worker shares (counts, stop flag,
// progress).
type explorer struct {
	opts    Options
	shared  *shared
	pool    *pool
	visitor Visitor
}

// dfs explores every branch reachable from eng. Over several workers,
// branches forked at rounds ≤ forkRounds are pushed to the pool's queue
// instead of being recursed into, which is how work spreads across
// workers; a lone worker recurses into every branch in plan order.
func (e *explorer) dfs(eng *rounds.Engine) error {
	if e.shared.stop.Load() {
		return errStopped
	}
	// A run is complete when every live process has decided and no
	// weak-round-synchrony obligation is outstanding. (An obligated process
	// still has to crash, which future rounds handle, so we must not stop
	// while obligations remain.)
	if eng.Done() && eng.Obligated().Empty() {
		return e.emit(eng)
	}
	if eng.Round() >= e.roundLimit(eng) {
		return e.emit(eng)
	}

	view := eng.NextView()
	buf := planBufPool.Get().(*planBuf)
	plans := EnumeratePlansInto(buf.plans[:0], view, e.opts.MaxCrashesPerRound)
	e.shared.plans.Add(int64(len(plans)))
	fork := e.pool.workers > 1 && view.Round <= forkRounds
	var err error
	for i, plan := range plans {
		last := i == len(plans)-1
		branch := eng // reuse the engine for the last branch
		if !last {
			branch, err = eng.Clone()
			if err != nil {
				break
			}
			e.shared.clones.Add(1)
		}
		scripted := plan
		if stepErr := branch.Step(rounds.AdversaryFunc(func(*rounds.View) rounds.Plan { return scripted })); stepErr != nil {
			err = fmt.Errorf("explore: enumerated an illegal plan %v at round %d: %w", plan, view.Round, stepErr)
			break
		}
		if fork && !last {
			e.pool.push(branch)
			continue
		}
		if err = e.dfs(branch); err != nil {
			break
		}
	}
	buf.plans = plans
	planBufPool.Put(buf)
	return err
}

func (e *explorer) roundLimit(eng *rounds.Engine) int {
	if e.opts.MaxRounds > 0 {
		return e.opts.MaxRounds
	}
	return rounds.DefaultRoundLimit(eng.T())
}

func (e *explorer) emit(eng *rounds.Engine) error {
	run, err := eng.Execute(rounds.NoFailures, 0) // freeze: engine is already done or at limit
	if err != nil {
		return err
	}
	if !eng.Obligated().Empty() {
		// The horizon cut the run before a pending-message obligation was
		// discharged: this is an unfinishable prefix, not an admissible
		// run. Mark it truncated so visitors can ignore it.
		run.Truncated = true
	}
	if run.Truncated {
		e.shared.truncated.Add(1)
	}
	n := e.shared.runs.Add(1)
	if e.opts.Progress != nil && n%int64(e.opts.ProgressEvery) == 0 {
		e.shared.progress(e.opts.Progress, eng.Round())
	}
	if e.visitor != nil && !e.visitor.Visit(run) {
		e.shared.stop.Store(true)
		return errStopped
	}
	return nil
}

// planBuf pools the per-node plan slices of the DFS: each recursion level
// borrows one for the duration of its branch loop, so steady-state
// exploration performs no plan-slice allocation at all.
type planBuf struct{ plans []rounds.Plan }

var planBufPool = sync.Pool{New: func() any { return new(planBuf) }}

// EnumeratePlans returns every canonical legal plan for the round described
// by v: all crash sets within budget (capped by maxCrashes if > 0, counting
// obligated crashers), all observable reach subsets for each crasher, and —
// in RWS — all observable pending-message patterns within the remaining
// budget.
func EnumeratePlans(v *rounds.View, maxCrashes int) []rounds.Plan {
	return EnumeratePlansInto(nil, v, maxCrashes)
}

// enumScratch holds the reusable buffers of one EnumeratePlansInto call.
// Everything here is dead once the call returns — the emitted plans never
// alias scratch memory — so a sync.Pool keeps the hot path allocation-free
// across both recursion and concurrent workers.
type enumScratch struct {
	crashSets []model.ProcSet
	crashers  []model.ProcessID
	choices   [][]model.ProcSet
	arena     []model.ProcSet
	selection []model.ProcSet
}

var enumPool = sync.Pool{New: func() any { return new(enumScratch) }}

// EnumeratePlansInto is EnumeratePlans appending into dst (which may be
// nil, or a recycled slice with its length reset to 0).
func EnumeratePlansInto(dst []rounds.Plan, v *rounds.View, maxCrashes int) []rounds.Plan {
	sc := enumPool.Get().(*enumScratch)
	defer enumPool.Put(sc)

	budget := v.Budget()
	obligated := v.Obligated.Count()

	// 1. Enumerate crash sets: subsets of Alive containing Obligated. The
	// per-round cap counts every new crash — including the obligated ones,
	// which must crash no matter what — so the extra-crash headroom is
	// min(budget, maxCrashes) − |Obligated|, floored at zero.
	maxExtra := budget - obligated
	if maxCrashes > 0 {
		if m := maxCrashes - obligated; m < maxExtra {
			maxExtra = m
		}
	}
	if maxExtra < 0 {
		maxExtra = 0
	}
	sc.crashSets = appendSubsetsWithin(sc.crashSets[:0], v.Alive.Minus(v.Obligated), maxExtra)

	plans := dst
	for _, extra := range sc.crashSets {
		crashing := extra.Union(v.Obligated)
		completers := v.Alive.Minus(crashing)

		// 2. For each crasher, enumerate reach subsets over *observable*
		// destinations: addressees that complete the round. All subset
		// lists live in one pre-sized arena so the choice slices stay valid
		// while the arena grows.
		sc.crashers = appendMembers(sc.crashers[:0], crashing)
		arenaSize := 0
		for _, q := range sc.crashers {
			arenaSize += 1 << uint(v.Sending[q].Intersect(completers).Remove(q).Count())
		}
		arena := sc.arena[:0]
		if cap(arena) < arenaSize {
			arena = make([]model.ProcSet, 0, arenaSize)
		}
		sc.choices = sc.choices[:0]
		for _, q := range sc.crashers {
			targets := v.Sending[q].Intersect(completers).Remove(q)
			start := len(arena)
			arena = appendSubsets(arena, targets)
			sc.choices = append(sc.choices, arena[start:len(arena):len(arena)])
		}
		sc.arena = arena

		// 3. In RWS, enumerate pending-message patterns: a set of droppers
		// among the completers (respecting the future budget), each with a
		// nonempty observable drop set.
		dropPatterns := []map[model.ProcessID]model.ProcSet{nil}
		if v.Model == rounds.RWS {
			futureBudget := budget - crashing.Count()
			dropPatterns = enumerateDrops(completers, v, futureBudget)
		}

		// Cartesian product: reach choices × drop patterns.
		if cap(sc.selection) < len(sc.choices) {
			sc.selection = make([]model.ProcSet, len(sc.choices))
		}
		forEachProduct(sc.choices, sc.selection[:len(sc.choices)], func(reaches []model.ProcSet) {
			for _, drops := range dropPatterns {
				p := rounds.Plan{}
				if len(sc.crashers) > 0 {
					p.Crashes = make(map[model.ProcessID]model.ProcSet, len(sc.crashers))
					for i, q := range sc.crashers {
						p.Crashes[q] = reaches[i]
					}
				}
				if len(drops) > 0 {
					p.Drops = drops
				}
				plans = append(plans, p)
			}
		})
	}
	return plans
}

// appendMembers appends the elements of s to dst in increasing order.
func appendMembers(dst []model.ProcessID, s model.ProcSet) []model.ProcessID {
	s.ForEach(func(p model.ProcessID) bool {
		dst = append(dst, p)
		return true
	})
	return dst
}

// appendSubsetsWithin appends all subsets of s with size ≤ max to dst,
// including the empty set.
func appendSubsetsWithin(dst []model.ProcSet, s model.ProcSet, max int) []model.ProcSet {
	if max < 0 {
		max = 0
	}
	var members [model.MaxProcs]model.ProcessID
	n := 0
	s.ForEach(func(p model.ProcessID) bool {
		members[n] = p
		n++
		return true
	})
	var rec func(i int, cur model.ProcSet, size int)
	rec = func(i int, cur model.ProcSet, size int) {
		if i == n {
			dst = append(dst, cur)
			return
		}
		rec(i+1, cur, size)
		if size < max {
			rec(i+1, cur.Add(members[i]), size+1)
		}
	}
	rec(0, 0, 0)
	return dst
}

// allSubsets returns every subset of s (2^|s| sets).
func allSubsets(s model.ProcSet) []model.ProcSet {
	return appendSubsets(make([]model.ProcSet, 0, 1<<uint(s.Count())), s)
}

// appendSubsets appends every subset of s (2^|s| sets) to dst.
func appendSubsets(dst []model.ProcSet, s model.ProcSet) []model.ProcSet {
	var members [model.MaxProcs]model.ProcessID
	n := 0
	s.ForEach(func(p model.ProcessID) bool {
		members[n] = p
		n++
		return true
	})
	for mask := 0; mask < 1<<uint(n); mask++ {
		var sub model.ProcSet
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = sub.Add(members[i])
			}
		}
		dst = append(dst, sub)
	}
	return dst
}

// enumerateDrops returns every observable pending-message pattern among the
// completers: every choice of ≤ futureBudget droppers, each dropping a
// nonempty subset of its completer-addressees. The nil pattern (no drops)
// is always first.
func enumerateDrops(completers model.ProcSet, v *rounds.View, futureBudget int) []map[model.ProcessID]model.ProcSet {
	out := []map[model.ProcessID]model.ProcSet{nil}
	if futureBudget <= 0 {
		return out
	}
	candidates := completers.Members()
	// dropTargets[q] = observable addressees q could drop to.
	var rec func(i int, current map[model.ProcessID]model.ProcSet, used int)
	rec = func(i int, current map[model.ProcessID]model.ProcSet, used int) {
		if i == len(candidates) {
			if len(current) > 0 {
				cp := make(map[model.ProcessID]model.ProcSet, len(current))
				for k, val := range current {
					cp[k] = val
				}
				out = append(out, cp)
			}
			return
		}
		q := candidates[i]
		// Choice 1: q drops nothing.
		rec(i+1, current, used)
		if used >= futureBudget {
			return
		}
		targets := v.Sending[q].Intersect(completers).Remove(q)
		for _, sub := range allSubsets(targets) {
			if sub.Empty() {
				continue
			}
			current[q] = sub
			rec(i+1, current, used+1)
			delete(current, q)
		}
	}
	rec(0, make(map[model.ProcessID]model.ProcSet), 0)
	return out
}

// forEachProduct invokes fn for every element of the cartesian product of
// the given choice lists, using selection (len(choices) long) as the
// iteration buffer. With no choice lists, fn is called once with an empty
// selection.
func forEachProduct(choices [][]model.ProcSet, selection []model.ProcSet, fn func([]model.ProcSet)) {
	var rec func(i int)
	rec = func(i int) {
		if i == len(choices) {
			fn(selection)
			return
		}
		for _, c := range choices[i] {
			selection[i] = c
			rec(i + 1)
		}
	}
	rec(0)
}
