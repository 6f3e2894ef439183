package emul

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/rounds"
	"repro/internal/step"
)

// emulation adapts a round-based algorithm to a step model: RS over SS
// (§4.1) or RWS over SP (§4.2). Both send the round's messages one per
// local step and then close the round; only the close rule differs
// (proc.roundOver).
type emulation struct {
	kind      rounds.ModelKind
	inner     rounds.Algorithm
	t         int
	maxRounds int
	deadlines []int // RS: the local-step deadlines K_0..K_maxRounds
	result    *Result
}

var _ step.Algorithm = (*emulation)(nil)

// newEmulation prepares an emulation of inner (resilience t) over n
// processes, running at most maxRounds rounds, with a fresh result record.
func newEmulation(kind rounds.ModelKind, inner rounds.Algorithm, t, maxRounds, n int) *emulation {
	e := &emulation{kind: kind, inner: inner, t: t, maxRounds: maxRounds}
	e.result = &Result{
		Algorithm:       e.Name(),
		N:               n,
		T:               t,
		DecidedAtRound:  make([]int, n+1),
		DecisionOf:      make([]model.Value, n+1),
		Decided:         make([]bool, n+1),
		CompletedRounds: make([]int, n+1),
		SentThrough:     make([]int, n+1),
		Crashed:         make([]bool, n+1),
		ReceivedFrom:    make([][]model.ProcSet, n+1),
	}
	for p := 1; p <= n; p++ {
		e.result.ReceivedFrom[p] = make([]model.ProcSet, maxRounds+2)
	}
	return e
}

// Name implements step.Algorithm.
func (e *emulation) Name() string { return e.kind.String() + "⟨" + e.inner.Name() + "⟩" }

// New implements step.Algorithm.
func (e *emulation) New(cfg step.Config) step.Automaton {
	return &proc{
		e:     e,
		id:    cfg.ID,
		n:     cfg.N,
		round: 1,
		inner: e.inner.New(rounds.ProcConfig{
			ID: cfg.ID, N: cfg.N, T: e.t, Initial: cfg.Input,
		}),
		got: make([]map[model.ProcessID]rounds.Message, e.maxRounds+2),
	}
}

// run drives the emulation under sched for at most horizon steps and
// records which processes crashed and how many steps the run took.
func (e *emulation) run(eng *step.Engine, sched step.Scheduler, horizon int) (*step.Trace, error) {
	tr, err := eng.Run(sched, horizon)
	if err != nil {
		return nil, fmt.Errorf("emul: Run%s(%s): %w", e.kind, e.Name(), err)
	}
	for q := 1; q <= e.result.N; q++ {
		e.result.Crashed[q] = tr.CrashedAt[q] != 0
	}
	e.result.Steps = len(tr.Events)
	return tr, nil
}

// allDecided stops a run once every live process has decided.
func allDecided(v *step.View) bool {
	done := true
	v.Alive.ForEach(func(q model.ProcessID) bool {
		done = v.Decided[q]
		return done
	})
	return done
}

// proc is one process of an emulation.
type proc struct {
	e     *emulation
	id    model.ProcessID
	n     int
	inner rounds.Process
	round int
	msgs  []rounds.Message
	sent  int // the current round's sends so far (n−1 when done)
	got   []map[model.ProcessID]rounds.Message
}

var (
	_ step.Automaton = (*proc)(nil)
	_ step.Decider   = (*proc)(nil)
)

// destFor maps a 1-based send offset to the destination process, skipping
// the sender itself.
func destFor(self model.ProcessID, offset int) model.ProcessID {
	d := model.ProcessID(offset)
	if d >= self {
		d++
	}
	return d
}

// Step implements step.Automaton: file arrivals, send the round's next
// message, and close the round when the model's rule says so.
func (p *proc) Step(in step.Input) *step.Send {
	res := p.e.result
	for _, m := range in.Received {
		rm, ok := m.Payload.(roundMsg)
		if !ok {
			continue
		}
		if rm.Round < p.round {
			// The paper's pending message: its round is already closed.
			res.PendingObserved = append(res.PendingObserved,
				PendingMessage{Sender: m.From, Receiver: p.id, Round: rm.Round})
			continue
		}
		if rm.Round < len(p.got) {
			if p.got[rm.Round] == nil {
				p.got[rm.Round] = make(map[model.ProcessID]rounds.Message, p.n)
			}
			p.got[rm.Round][m.From] = rm.Payload
			res.ReceivedFrom[p.id][rm.Round] = res.ReceivedFrom[p.id][rm.Round].Add(m.From)
		}
	}
	if p.round > p.e.maxRounds {
		return nil
	}

	var send *step.Send
	if p.sent < p.n-1 {
		if p.sent == 0 {
			p.msgs = p.inner.Msgs(p.round)
		}
		p.sent++
		if p.sent == p.n-1 {
			res.SentThrough[p.id] = p.round
		}
		dest := destFor(p.id, p.sent)
		var payload rounds.Message
		if p.msgs != nil {
			payload = p.msgs[dest]
		}
		// Null messages are transmitted explicitly so receivers can tell
		// "null" from "pending"; the payload stays nil.
		send = &step.Send{To: dest, Payload: roundMsg{Round: p.round, Payload: payload}}
	}
	if p.roundOver(in, send != nil) {
		p.closeRound()
	}
	return send
}

// roundOver is the model's close rule. RS closes at the local-step
// deadline K_r; RWS closes on a step that sends nothing, once every peer
// has delivered its round message or is suspected.
func (p *proc) roundOver(in step.Input, sending bool) bool {
	if p.e.kind == rounds.RS {
		return in.Local == p.e.deadlines[p.round]
	}
	if sending {
		return false
	}
	for j := 1; j <= p.n; j++ {
		pj := model.ProcessID(j)
		if _, got := p.got[p.round][pj]; pj != p.id && !got && !in.Suspects.Has(pj) {
			return false
		}
	}
	return true
}

// closeRound applies the round's transition from the collected messages
// and opens the next round.
func (p *proc) closeRound() {
	received := make([]rounds.Message, p.n+1)
	for from, payload := range p.got[p.round] {
		received[from] = payload
	}
	// Self-delivery: the process always sees its own non-null message.
	if p.msgs != nil {
		received[p.id] = p.msgs[p.id]
	}
	p.inner.Trans(p.round, received)
	res := p.e.result
	res.CompletedRounds[p.id] = p.round
	if !res.Decided[p.id] {
		if v, ok := p.inner.Decision(); ok {
			res.Decided[p.id] = true
			res.DecisionOf[p.id] = v
			res.DecidedAtRound[p.id] = p.round
		}
	}
	p.got[p.round] = nil
	p.round++
	p.msgs = nil
	p.sent = 0
}

// Decision implements step.Decider.
func (p *proc) Decision() (model.Value, bool) { return p.inner.Decision() }

// RunRS emulates the algorithm over the SS step engine under a seeded
// SS-admissible scheduler, with optional crash injection (global step →
// victim). Φ and Δ must be at least 1. It validates the produced schedule
// against the Φ/Δ conditions and returns the round-level result.
func RunRS(inner rounds.Algorithm, initial []model.Value, t, phi, delta, maxRounds int, seed int64, crashAt map[model.ProcessID]int) (*Result, error) {
	if phi < 1 || delta < 1 {
		return nil, fmt.Errorf("emul: RunRS: synchrony bounds must be at least 1, got Φ=%d Δ=%d", phi, delta)
	}
	n := len(initial)
	e := newEmulation(rounds.RS, inner, t, maxRounds, n)
	e.deadlines = DeadlineSchedule(n, phi, delta, maxRounds)
	eng, err := step.NewEngine(e, initial)
	if err != nil {
		return nil, err
	}
	sched := step.NewSSScheduler(phi, delta, seed, allDecided)
	sched.CrashAtStep = crashAt
	// Horizon: every process takes at most K_max local steps; the global
	// step count is bounded by n times that (plus crashes).
	tr, err := e.run(eng, sched, (n+1)*e.deadlines[maxRounds]+16)
	if err != nil {
		return nil, err
	}
	if v := step.CheckProcessSynchrony(tr, phi); len(v) != 0 {
		return nil, fmt.Errorf("emul: RunRS: schedule violates process synchrony: %s", v[0].Error())
	}
	if v := step.CheckMessageSynchrony(tr, delta); len(v) != 0 {
		return nil, fmt.Errorf("emul: RunRS: schedule violates message synchrony: %s", v[0].Error())
	}
	return e.result, nil
}

// RunRWS emulates the algorithm over the SP step engine under a seeded SP
// scheduler with crash injection. The trace's detector axioms are verified
// and the result's Lemma 4.1 property is checked before returning.
func RunRWS(inner rounds.Algorithm, initial []model.Value, t, maxRounds int, seed int64, crashAt map[model.ProcessID]int, tune ...func(*step.SPScheduler)) (*Result, error) {
	n := len(initial)
	e := newEmulation(rounds.RWS, inner, t, maxRounds, n)
	eng, err := step.NewEngineWithFD(e, initial)
	if err != nil {
		return nil, err
	}
	sched := step.NewSPScheduler(seed, allDecided)
	sched.CrashAtStep = crashAt
	for _, f := range tune {
		f(sched)
	}
	tr, err := e.run(eng, sched, 200*n*(maxRounds+2))
	if err != nil {
		return nil, err
	}
	fp, h := fd.FromTrace(tr)
	if v := fd.CheckStrongAccuracy(fp, h, model.TimeNever); len(v) != 0 { // over the whole trace
		return nil, fmt.Errorf("emul: RunRWS: accuracy violated: %s", v[0].Error())
	}
	if v := rounds.WeakRoundSynchrony(e.result.Receptions()); len(v) != 0 {
		return nil, fmt.Errorf("emul: RunRWS: %s", v[0].Error())
	}
	return e.result, nil
}
