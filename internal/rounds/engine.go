package rounds

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
)

// DefaultRoundLimit bounds executions whose algorithm fails to terminate.
// Every algorithm in the paper decides within t+1 rounds (plus one round of
// decision forwarding), so t+3 rounds is a safe, exact horizon; we leave a
// little extra headroom for experimental variants.
func DefaultRoundLimit(t int) int { return t + 4 }

// Engine executes a round-based algorithm in RS or RWS under a given
// adversary. The zero value is not usable; construct with NewEngine.
//
// The engine is single-threaded and deterministic: identical algorithm,
// initial values and adversary produce identical runs. (Concurrency is the
// business of package runtime, which realizes the same models with live
// goroutines; the engine exists for exact adversarial control.)
type Engine struct {
	kind  ModelKind
	n, t  int
	limit int

	alg     Algorithm
	initial []model.Value // indexed 1..n

	procs      []Process // indexed 1..n; nil once crashed
	alive      model.ProcSet
	crashRound []int
	decidedAt  []int
	decisionOf []model.Value
	obligated  model.ProcSet // droppers that must crash next round
	round      int           // last completed round

	run *Run

	metrics  roundsMetrics // resolved counters (nil-safe when registry is nil)
	sink     obs.Sink      // optional structured-event stream; nil = disabled
	finished bool          // run_end emitted and runs counter bumped
}

// Option configures an Engine.
type Option func(*Engine)

// WithRoundLimit overrides the default execution horizon.
func WithRoundLimit(limit int) Option {
	return func(e *Engine) { e.limit = limit }
}

// WithMetrics redirects the engine's counters to reg instead of obs.Default.
// A nil registry disables metrics entirely.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) { e.metrics = newRoundsMetrics(reg, e.kind) }
}

// WithEventSink streams structured run events (run_start, round_start, send,
// crash, arrive, recv, decide, run_end) to sink as the engine executes, in
// the live worker's dialect: a survivor's send names all n−1 addressees and
// every envelope it heard arrives, null ones included. The stream equals
// EventsFromRun of the finished run and is what conform.Project reads.
func WithEventSink(sink obs.Sink) Option {
	return func(e *Engine) { e.sink = sink }
}

// NewEngine prepares an execution of alg over n processes tolerating t
// crashes in the given model, with initial[i-1] as p_i's initial value.
func NewEngine(kind ModelKind, alg Algorithm, initial []model.Value, t int, opts ...Option) (*Engine, error) {
	n := len(initial)
	if n < 1 || n > model.MaxProcs {
		return nil, fmt.Errorf("rounds: NewEngine: n=%d out of range [1,%d]", n, model.MaxProcs)
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("rounds: NewEngine: t=%d out of range [0,%d)", t, n)
	}
	if kind != RS && kind != RWS {
		return nil, fmt.Errorf("rounds: NewEngine: unknown model kind %v", kind)
	}
	e := &Engine{
		kind:       kind,
		n:          n,
		t:          t,
		limit:      DefaultRoundLimit(t),
		alg:        alg,
		initial:    make([]model.Value, n+1),
		procs:      make([]Process, n+1),
		alive:      model.FullSet(n),
		crashRound: make([]int, n+1),
		decidedAt:  make([]int, n+1),
		decisionOf: make([]model.Value, n+1),
	}
	copy(e.initial[1:], initial)
	e.metrics = newRoundsMetrics(obs.Default, kind)
	for _, opt := range opts {
		opt(e)
	}
	for i := 1; i <= n; i++ {
		e.procs[i] = alg.New(ProcConfig{ID: model.ProcessID(i), N: n, T: t, Initial: e.initial[i]})
	}
	e.run = &Run{
		Algorithm:  alg.Name(),
		Model:      kind,
		N:          n,
		T:          t,
		Initial:    append([]model.Value(nil), e.initial...),
		CrashRound: e.crashRound,
		DecidedAt:  e.decidedAt,
		DecisionOf: e.decisionOf,
	}
	if e.sink != nil {
		values := make([]int64, n)
		for i := 1; i <= n; i++ {
			values[i-1] = int64(e.initial[i])
		}
		e.sink.Emit(obs.Event{
			Type:      obs.EventRunStart,
			Algorithm: alg.Name(),
			Model:     kind.String(),
			N:         n,
			T:         t,
			Values:    values,
		})
	}
	return e, nil
}

// T returns the resilience bound.
func (e *Engine) T() int { return e.t }

// Kind returns the model being executed.
func (e *Engine) Kind() ModelKind { return e.kind }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Alive returns the processes alive after the last completed round.
func (e *Engine) Alive() model.ProcSet { return e.alive }

// Obligated returns the processes that must crash in the next round to
// preserve weak round synchrony.
func (e *Engine) Obligated() model.ProcSet { return e.obligated }

// Done reports whether every live process has decided (the engine's halt
// condition: latency measures count rounds until decisions, and every
// algorithm in the paper quiesces once all live processes have decided).
func (e *Engine) Done() bool {
	done := true
	e.alive.ForEach(func(p model.ProcessID) bool {
		if e.decidedAt[p] == 0 {
			done = false
			return false
		}
		return true
	})
	return done
}

// View assembles the adversary's view for the next round. The message
// pattern is computed by calling Msgs on every live process; the engine
// caches nothing, so View must be followed by StepWithMsgs via Step.
func (e *Engine) view(msgs [][]Message) *View {
	v := &View{
		Round:       e.round + 1,
		N:           e.n,
		T:           e.t,
		Model:       e.kind,
		Alive:       e.alive,
		FaultySoFar: e.n - e.alive.Count(),
		Obligated:   e.obligated,
		Sending:     make([]model.ProcSet, e.n+1),
	}
	for j := 1; j <= e.n; j++ {
		if msgs[j] == nil {
			continue
		}
		var s model.ProcSet
		for i := 1; i <= e.n; i++ {
			if msgs[j][i] != nil {
				s = s.Add(model.ProcessID(i))
			}
		}
		v.Sending[j] = s
	}
	return v
}

// NextView computes the adversary view of the round about to execute,
// without executing it. It requires Msgs to be side-effect-free (true of
// every algorithm in this repository): the engine calls Msgs again inside
// Step. The exhaustive explorer uses NextView to enumerate the legal plans
// of a round before forking the engine.
func (e *Engine) NextView() *View {
	r := e.round + 1
	msgs := make([][]Message, e.n+1)
	e.alive.ForEach(func(p model.ProcessID) bool {
		msgs[p] = e.procs[p].Msgs(r)
		return true
	})
	return e.view(msgs)
}

// Step executes one round under the given adversary. It returns an error if
// the adversary's plan is illegal for the model.
func (e *Engine) Step(adv Adversary) error {
	r := e.round + 1

	// 1. Message generation: every process alive at the start of the round
	// produces its messages (a process crashing *during* the round still
	// generated messages; the adversary chooses who they reach).
	msgs := make([][]Message, e.n+1)
	e.alive.ForEach(func(p model.ProcessID) bool {
		out := e.procs[p].Msgs(r)
		if out != nil && len(out) != e.n+1 {
			panic(fmt.Sprintf("rounds: %s: Msgs(%d) of %v returned %d entries, want %d",
				e.alg.Name(), r, p, len(out), e.n+1))
		}
		msgs[p] = out
		return true
	})

	// 2. Adversary plans the round; the engine validates the plan.
	v := e.view(msgs)
	plan := adv.Plan(v)
	if err := plan.validate(v); err != nil {
		return err
	}

	// 3. Work out deliveries.
	rec := RoundRecord{
		Round:      r,
		AliveStart: e.alive,
		Crashed:    plan.crashSet(),
		Sent:       make([]model.ProcSet, e.n+1),
		Reached:    make([]model.ProcSet, e.n+1),
	}
	for j := 1; j <= e.n; j++ {
		rec.Sent[j] = v.Sending[j]
	}

	survivors := e.alive.Minus(rec.Crashed)
	for j := 1; j <= e.n; j++ {
		pj := model.ProcessID(j)
		if !e.alive.Has(pj) {
			continue
		}
		sent := rec.Sent[j]
		var reached model.ProcSet
		switch {
		case rec.Crashed.Has(pj):
			// A crashing process reaches exactly the adversary-chosen
			// subset of its addressees (its own transition never runs, so
			// self-delivery is moot).
			reached = plan.Crashes[pj].Intersect(sent).Remove(pj)
		default:
			reached = sent
			if d, ok := plan.Drops[pj]; ok {
				reached = reached.Minus(d)
			}
		}
		// Only processes that complete the round observably receive
		// anything; trim the record so Reached reflects actual deliveries.
		rec.Reached[j] = reached.Intersect(survivors)
	}

	// 4. Deliver and transition every survivor in lock-step.
	received := make([][]Message, e.n+1)
	survivors.ForEach(func(pi model.ProcessID) bool {
		in := make([]Message, e.n+1)
		for j := 1; j <= e.n; j++ {
			if rec.Reached[j].Has(pi) {
				in[j] = msgs[j][pi]
				if model.ProcessID(j) != pi {
					// Self-delivery always succeeds for a process that
					// completes the round but is not a network message.
					rec.Messages++
				}
			}
		}
		received[pi] = in
		return true
	})
	survivors.ForEach(func(pi model.ProcessID) bool {
		e.procs[pi].Trans(r, received[pi])
		if e.decidedAt[pi] == 0 {
			if val, ok := e.procs[pi].Decision(); ok {
				e.decidedAt[pi] = r
				e.decisionOf[pi] = val
			}
		}
		return true
	})

	// 5. Bookkeeping: record crashes, rotate obligations.
	rec.Crashed.ForEach(func(p model.ProcessID) bool {
		e.crashRound[p] = r
		e.procs[p] = nil
		return true
	})
	e.alive = survivors
	e.obligated = 0
	for j, dropped := range plan.Drops {
		if !dropped.Empty() && survivors.Has(j) {
			// Dropping to a process that crashed this very round leaves no
			// observable trace, hence no obligation: weak round synchrony
			// only constrains messages a *live* receiver failed to get.
			if !dropped.Intersect(survivors).Empty() {
				e.obligated = e.obligated.Add(j)
			}
		}
	}
	e.round = r
	e.run.Rounds = append(e.run.Rounds, rec)

	// 6. Observability: counters count exactly what the record tallies (the
	// property tests hold the registry to Run.Totals()), and the event sink
	// receives the round in the live runtime's event vocabulary.
	rt := rec.Totals()
	decisions := 0
	for p := 1; p <= e.n; p++ {
		if e.decidedAt[p] == r {
			decisions++
		}
	}
	e.metrics.rounds.Inc()
	e.metrics.sent.Add(int64(rt.Sent))
	e.metrics.delivered.Add(int64(rt.Delivered))
	e.metrics.dropped.Add(int64(rt.Dropped))
	e.metrics.pending.Add(int64(rt.Pending))
	e.metrics.crashes.Add(int64(rt.Crashes))
	e.metrics.decisions.Add(int64(decisions))
	if e.sink != nil {
		recordEvents(&rec, e.n, e.decidedAt, e.decisionOf, e.sink.Emit)
	}
	return nil
}

// Execute runs rounds under adv until every live process has decided, at
// least minRounds rounds have executed, and no weak-round-synchrony
// obligations remain; or until the round limit is hit (which marks the run
// Truncated). It returns the completed run record.
func (e *Engine) Execute(adv Adversary, minRounds int) (*Run, error) {
	for {
		if e.round >= e.limit {
			e.run.Truncated = !e.Done()
			return e.finish(), nil
		}
		if e.round >= minRounds && e.Done() && e.obligated.Empty() {
			return e.finish(), nil
		}
		if err := e.Step(adv); err != nil {
			return nil, err
		}
	}
}

// finish freezes and returns the run record, closing out the observability
// stream exactly once even if Execute is re-entered.
func (e *Engine) finish() *Run {
	if !e.finished {
		e.finished = true
		e.metrics.runs.Inc()
		if e.sink != nil {
			e.sink.Emit(obs.Event{Type: obs.EventRunEnd, Truncated: e.run.Truncated})
		}
	}
	return e.run
}

// Run is a convenience wrapper: build an engine and execute it to completion.
func RunAlgorithm(kind ModelKind, alg Algorithm, initial []model.Value, t int, adv Adversary, opts ...Option) (*Run, error) {
	e, err := NewEngine(kind, alg, initial, t, opts...)
	if err != nil {
		return nil, err
	}
	return e.Execute(adv, 0)
}

// Clone returns an independent copy of the engine, including deep copies of
// every live process automaton. It fails if some process does not implement
// Cloner. The exhaustive explorer uses clones to fork executions at
// adversary choice points without replaying prefixes.
//
// Clones are fully owned by the caller and safe to hand to another
// goroutine: every mutable slice (crashRound, decidedAt, decisionOf,
// initial, the Run header) is deep-copied. The only state shared with the
// parent is immutable by construction — the per-round RoundRecord Sent and
// Reached slices, which are written exactly once inside the Step that
// appends their record and never mutated afterwards — plus the metrics
// counters, which are atomic. The parallel explorer relies on this
// ownership split: concurrent branches may step, clone and finish freely
// without synchronizing on their common prefix.
func (e *Engine) Clone() (*Engine, error) {
	c := &Engine{
		kind:       e.kind,
		n:          e.n,
		t:          e.t,
		limit:      e.limit,
		alg:        e.alg,
		initial:    append([]model.Value(nil), e.initial...),
		procs:      make([]Process, e.n+1),
		alive:      e.alive,
		crashRound: append([]int(nil), e.crashRound...),
		decidedAt:  append([]int(nil), e.decidedAt...),
		decisionOf: append([]model.Value(nil), e.decisionOf...),
		obligated:  e.obligated,
		round:      e.round,
		// The clone keeps counting into the same registry (forked rounds are
		// still executed rounds) but does not inherit the event sink: two
		// engines interleaving one JSONL stream would garble it.
		metrics:  e.metrics,
		finished: e.finished,
	}
	for i := 1; i <= e.n; i++ {
		if e.procs[i] == nil {
			continue
		}
		cl, ok := e.procs[i].(Cloner)
		if !ok {
			return nil, fmt.Errorf("rounds: Clone: process %d of %s does not implement Cloner", i, e.alg.Name())
		}
		c.procs[i] = cl.CloneProcess()
	}
	c.run = &Run{
		Algorithm: e.run.Algorithm,
		Model:     e.run.Model,
		N:         e.run.N,
		T:         e.run.T,
		Initial:   c.initial,
		// The record structs are copied; their interior Sent/Reached slices
		// are shared with the parent, which is safe because records are
		// append-only and immutable once their round has executed.
		Rounds:     append([]RoundRecord(nil), e.run.Rounds...),
		CrashRound: c.crashRound,
		DecidedAt:  c.decidedAt,
		DecisionOf: c.decisionOf,
		Truncated:  e.run.Truncated,
	}
	return c, nil
}
