package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// sentFrame is one round frame a sweep handed its links, as it left.
type sentFrame struct {
	from, to model.ProcessID
	round    int
	data     []byte
}

// What a schedule does with a frame the moment it is sent.
type verdict int

const (
	fileIt verdict = iota // delivered: filed at its receiver's next sweeps
	holdIt                // pending: filed once its receiver has closed the round
	loseIt                // lost with its crashing sender
)

// driver steps one instance through the worker's sweep with no mesh, no
// detector, no goroutine and no clock. Recording endpoints catch what each
// sweep sends, a schedule decides what becomes of every frame, now is
// synthetic, and every live node suspects exactly the crashed ones — a
// perfect detector — once nothing sent before the crash is left to file.
type driver struct {
	w     *engWorker
	sl    *instSlab
	eps   []*recordingTransport // 1..n
	now   time.Time
	queue []sentFrame // to file, oldest first
	held  []sentFrame // pending
	out   *InstanceOutcome
}

// driverBound is a driver's RWS wait bound and RS round duration. An RS
// driver moves now by it to pass each barrier; an RWS driver moves now only
// where a test says so.
const driverBound = time.Second

// newDriver opens one instance of alg, node i proposing initial[i-1], on a
// worker built as StartEngine and OpenWith build one, over recording
// endpoints and with no detector.
func newDriver(reg *obs.Registry, alg rounds.Algorithm, kind rounds.ModelKind, initial []model.Value, t int,
	crashes map[model.ProcessID]CrashPlan) *driver {
	n := len(initial)
	d := &driver{eps: make([]*recordingTransport, n+1), now: time.Unix(1, 0)}
	endpoints := make([]Transport, n+1)
	for i := 1; i <= n; i++ {
		d.eps[i] = &recordingTransport{}
		endpoints[i] = d.eps[i]
	}
	er := newEngineRun(alg, EngineConfig{
		Kind: kind, N: n, T: t, Groups: 1, MaxRounds: t + 2,
		WaitBound: driverBound, RoundDuration: driverBound,
		OnInstanceDone: func(_ uint64, out InstanceOutcome) { d.out = &out },
	}, reg, endpoints)
	er.opened.Store(1)
	d.sl = er.newSlab(0, func(id model.ProcessID) model.Value { return initial[id-1] }, OpenOptions{Crashes: crashes})
	d.sl.epoch = d.now
	d.w = er.workers[0]
	d.w.register(d.sl)
	return d
}

// step files the oldest queued frame of each receiver — one per receiver
// and sweep, so a round that closes before its last frame shows — sweeps
// at now, flushes the links and sorts what the sweep sent by schedule. A
// held frame is queued once its receiver left the frame's round.
func (d *driver) step(tb testing.TB, schedule func(sentFrame) verdict) {
	tb.Helper()
	var events []engEvent
	var filed model.ProcSet
	rest := d.queue[:0]
	for _, f := range d.queue {
		if filed.Has(f.to) {
			rest = append(rest, f)
			continue
		}
		filed = filed.Add(f.to)
		events = append(events, engEvent{node: f.to, pkt: f.data})
	}
	d.queue = rest
	d.w.sweep(events, d.now)
	n := d.w.run.n
	for i := 1; i <= n; i++ {
		if err := d.w.links[i].Flush(); err != nil {
			tb.Fatal(err)
		}
		for _, pkt := range d.eps[i].sent {
			_ = wire.SplitBatch(pkt, func(frame []byte) error {
				env, _, err := wire.Split(frame)
				if err != nil {
					tb.Fatalf("the sweep sent a bad frame: %v", err)
				}
				f := sentFrame{from: env.From, to: env.To, round: env.Round, data: frame}
				switch schedule(f) {
				case fileIt:
					d.queue = append(d.queue, f)
				case holdIt:
					d.held = append(d.held, f)
				}
				return nil
			})
		}
		d.eps[i].sent = nil
	}
	// A pending frame is older than anything queued: it is filed first, one
	// round late.
	var late []sentFrame
	held := d.held[:0]
	for _, f := range d.held {
		if st := &d.sl.states[f.to-1]; st.round == 0 || int(st.round) > f.round {
			late = append(late, f)
		} else {
			held = append(held, f)
		}
	}
	d.held = held
	d.queue = append(late, d.queue...)
	// A perfect detector, slow enough that every frame a crashed node sent
	// before its crash is filed first.
	if len(d.queue) > 0 {
		return
	}
	changed := false
	for i := 1; i <= n; i++ {
		if id := model.ProcessID(i); !d.w.crashed.Has(id) && d.w.suspects[i] != d.w.crashed {
			d.w.suspects[i] = d.w.crashed
			changed = true
		}
	}
	if changed {
		d.w.enqueueAll()
	}
}

// run steps until the instance's last automaton halts. An RS round closes
// by moving now onto its barrier once nothing is left to file; an RWS
// round never waits out its bound here.
func (d *driver) run(tb testing.TB, schedule func(sentFrame) verdict) InstanceOutcome {
	tb.Helper()
	for steps := 0; d.out == nil; steps++ {
		if steps == 64 {
			tb.Fatalf("instance still running after %d sweeps: %d automata active", steps, d.w.active)
		}
		d.step(tb, schedule)
		if d.w.run.cfg.Kind == rounds.RS && len(d.queue) == 0 {
			d.now = d.now.Add(driverBound)
		}
	}
	return *d.out
}

// replay drives a round-model run's schedule through a fresh driver, its
// instance's events going to events (which may be nil). A
// crashing sender's frames reach only its round's Reached set, and then it
// is crash-stopped; a pending message is held until its receiver has closed
// the round, which it can only do once the sender crashed in the next round
// and is suspected; rounds past the run's last are failure-free.
func replay(tb testing.TB, reg *obs.Registry, alg rounds.Algorithm, run *rounds.Run, events obs.Sink) InstanceOutcome {
	tb.Helper()
	crashes := make(map[model.ProcessID]CrashPlan)
	for p := 1; p <= run.N; p++ {
		if r := run.CrashRound[p]; r != 0 {
			crashes[model.ProcessID(p)] = CrashPlan{Round: r, Reach: run.N - 1}
		}
	}
	d := newDriver(reg, alg, run.Model, run.Initial[1:], run.T, crashes)
	d.sl.events = events
	return d.run(tb, func(f sentFrame) verdict {
		if f.round > len(run.Rounds) {
			return fileIt
		}
		rec := &run.Rounds[f.round-1]
		switch {
		case rec.Crashed.Has(f.from) && !rec.Reached[f.from].Has(f.to):
			return loseIt
		case !rec.Crashed.Has(f.from) && rec.Sent[f.from].Minus(rec.Reached[f.from]).Has(f.to):
			return holdIt
		}
		return fileIt
	})
}

// sameAsModel reports whether out is run's outcome node by node: decided
// flag, value and decide round, crash, and no WaitBound expiry.
func sameAsModel(out InstanceOutcome, run *rounds.Run) bool {
	if out.Err != nil || out.WaitTimeouts != 0 {
		return false
	}
	for p := 1; p <= run.N; p++ {
		nd := out.Nodes[p-1]
		decided := run.DecidedAt[p] != 0
		if out.Decided[p-1] != decided || nd.Crashed != (run.CrashRound[p] != 0) ||
			decided && (out.Decisions[p-1] != run.DecisionOf[p] || int(nd.DecidedAt) != run.DecidedAt[p]) {
			return false
		}
	}
	return true
}

// sweepCase is one algorithm and model of the n=3, t=1 replay sweeps.
type sweepCase struct {
	kind      rounds.ModelKind
	alg       rounds.Algorithm
	disagrees bool // some run splits the decision (§5.3)
}

// sweepCases is every algorithm of each model, plus A1 in RWS.
func sweepCases() []sweepCase {
	var cases []sweepCase
	for _, kind := range []rounds.ModelKind{rounds.RWS, rounds.RS} {
		for _, alg := range consensus.ForModel(kind) {
			cases = append(cases, sweepCase{kind: kind, alg: alg})
		}
	}
	return append(cases, sweepCase{rounds.RWS, consensus.A1{}, true})
}

// sweepConfigs is the initial configurations the replay sweeps explore at
// n=3: (3, 1, 2) and every binary one.
func sweepConfigs() [][]model.Value {
	configs := [][]model.Value{vals(3, 1, 2)}
	for mask := 0; mask < 8; mask++ {
		configs = append(configs, vals(int64(mask&1), int64(mask>>1&1), int64(mask>>2&1)))
	}
	return configs
}

// TestDriverMatchesRoundModel replays every run the exhaustive explorer
// visits at n=3, t=1 — every crash, partial broadcast and pending message
// — through the worker's own sweep, and requires each node to decide (or
// not), what and when the round model says: every algorithm of each model,
// plus A1 in RWS, whose §5.3 disagreements must come out of the sweep too.
func TestDriverMatchesRoundModel(t *testing.T) {
	reg := obs.NewRegistry()
	goroutines := goruntime.NumGoroutine()
	start := time.Now()
	total := 0
	for _, c := range sweepCases() {
		runs, violated := 0, 0
		for _, initial := range sweepConfigs() {
			_, err := explore.Runs(c.kind, c.alg, initial, 1, explore.Options{Metrics: reg}, func(run *rounds.Run) bool {
				runs++
				out := replay(t, reg, c.alg, run, nil)
				if run.Truncated || !sameAsModel(out, run) {
					t.Errorf("%s/%s: the sweep gave %+v\nthe round model's run:\n%s", c.alg.Name(), c.kind, out, rounds.RenderRun(run))
					return false
				}
				if _, st := out.Agreement(); st == AgreementViolated {
					violated++
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.alg.Name(), c.kind, err)
			}
		}
		t.Logf("%s/%s: %d runs replayed, %d disagreeing", c.alg.Name(), c.kind, runs, violated)
		if (violated > 0) != c.disagrees {
			t.Errorf("%s/%s: %d replayed runs disagree", c.alg.Name(), c.kind, violated)
		}
		total += runs
	}
	t.Logf("%d runs in %v", total, time.Since(start))
	// Goroutines are counted process-wide, so one an earlier test left
	// behind may exit during the sweep: the sweep starts none when there
	// are no more after it than before.
	if now := goruntime.NumGoroutine(); now > goroutines {
		t.Errorf("goroutines: %d before the replays, %d after; the sweep starts none", goroutines, now)
	}
}

// dialectRow is what one process's events say about one round.
type dialectRow struct {
	started, recv, crashed, decided bool
	sentTo, arrived, peers          model.ProcSet
	decision                        int64
}

// dialectRows files an instance's round events by (process, round).
func dialectRows(events []obs.Event) map[[2]int]*dialectRow {
	rows := make(map[[2]int]*dialectRow)
	row := func(p, r int) *dialectRow {
		k := [2]int{p, r}
		if rows[k] == nil {
			rows[k] = &dialectRow{}
		}
		return rows[k]
	}
	set := func(ids []int) model.ProcSet {
		var s model.ProcSet
		for _, j := range ids {
			s = s.Add(model.ProcessID(j))
		}
		return s
	}
	for _, ev := range events {
		switch ev.Type {
		case obs.EventRoundStart:
			row(ev.Proc, ev.Round).started = true
		case obs.EventSend:
			row(ev.From, ev.Round).sentTo = set(ev.To)
		case obs.EventArrive:
			rw := row(ev.Proc, ev.Round)
			rw.arrived = rw.arrived.Add(model.ProcessID(ev.From))
		case obs.EventRecv:
			rw := row(ev.Proc, ev.Round)
			rw.recv, rw.peers = true, set(ev.Peers)
		case obs.EventCrash:
			row(ev.Proc, ev.Round).crashed = true
		case obs.EventDecide:
			rw := row(ev.Proc, ev.Round)
			rw.decided, rw.decision = true, *ev.Value
		}
	}
	return rows
}

// TestDriverSpeaksTheModelsDialect replays the runs of
// TestDriverMatchesRoundModel with a collector on the instance's events and
// holds the worker's stream to rounds.EventsFromRun: for every (process,
// round) the worker ran within the run's rounds, the same arrivals,
// reception record, crash, decision and — for a survivor — send
// destinations. (The driver models a partial broadcast by losing frames,
// so a crasher's send names all n−1.) A round only the model runs must
// come after its process decided: the worker halted that automaton at
// quiescence. In RWS these are the survivors' obligation rounds, in which
// a dropper crashes; in RS and for A1 in RWS there are none.
func TestDriverSpeaksTheModelsDialect(t *testing.T) {
	reg := obs.NewRegistry()
	for _, c := range sweepCases() {
		modelOnly, inRuns := 0, 0
		for _, initial := range sweepConfigs() {
			_, err := explore.Runs(c.kind, c.alg, initial, 1, explore.Options{Metrics: reg}, func(run *rounds.Run) bool {
				var events obs.Collector
				replay(t, reg, c.alg, run, &events)
				live, want := dialectRows(events.Events()), dialectRows(rounds.EventsFromRun(run))
				for k, got := range live {
					if k[1] > len(run.Rounds) {
						continue // past the model's last round: a tail the run record ends before
					}
					exp := want[k]
					if exp == nil || !got.started {
						t.Errorf("%s/%s: the worker's p%d emitted round %d events %+v the model has not:\n%s",
							c.alg.Name(), c.kind, k[0], k[1], *got, rounds.RenderRun(run))
						return false
					}
					g, e := *got, *exp
					if e.crashed {
						g.sentTo, e.sentTo = 0, 0
					}
					if g != e {
						t.Errorf("%s/%s: p%d round %d: worker %+v, model %+v\n%s",
							c.alg.Name(), c.kind, k[0], k[1], g, e, rounds.RenderRun(run))
						return false
					}
				}
				before := modelOnly
				for k := range want {
					if live[k] != nil {
						continue
					}
					if d := run.DecidedAt[k[0]]; d == 0 || k[1] <= d {
						t.Errorf("%s/%s: the worker skipped p%d's round %d, which the model ran before p%d decided:\n%s",
							c.alg.Name(), c.kind, k[0], k[1], k[0], rounds.RenderRun(run))
						return false
					}
					modelOnly++
				}
				if modelOnly > before {
					inRuns++
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.alg.Name(), c.kind, err)
			}
		}
		t.Logf("%s/%s: %d process-rounds in %d runs only the model ran", c.alg.Name(), c.kind, modelOnly, inRuns)
		if modelOnly > 0 && (c.kind == rounds.RS || c.disagrees) {
			t.Errorf("%s/%s: %d process-rounds only the model ran, want none", c.alg.Name(), c.kind, modelOnly)
		}
	}
}

// TestDriverA1DisagreesInRWS scripts the paper's §5.3 scenario through the
// sweep: A1 in RWS, proposals (3, 1, 2). p1 decides 3 at round 1 by
// self-delivery while its round-1 frames are pending, crashes in round 2
// reaching nobody, and p2 and p3 — suspecting it — decide p2's 1.
// TestLiveA1DisagreesInRWS is the same run raced on a live mesh.
func TestDriverA1DisagreesInRWS(t *testing.T) {
	d := newDriver(obs.NewRegistry(), consensus.A1{}, rounds.RWS, vals(3, 1, 2), 1,
		map[model.ProcessID]CrashPlan{1: {Round: 2, Reach: 0}})
	out := d.run(t, func(f sentFrame) verdict {
		if f.from == 1 && f.round == 1 {
			return holdIt
		}
		return fileIt
	})
	if !out.Decided[0] || out.Decisions[0] != 3 || out.Nodes[0].DecidedAt != 1 || !out.Nodes[0].Crashed {
		t.Errorf("p1 in %+v, want decision 3 at round 1, then the crash", out)
	}
	for i := 1; i < 3; i++ {
		if !out.Decided[i] || out.Decisions[i] != 1 || out.Nodes[i].DecidedAt != 2 {
			t.Errorf("p%d in %+v, want p2's 1 at round 2", i+1, out)
		}
	}
	if _, st := out.Agreement(); st != AgreementViolated || out.WaitTimeouts != 0 {
		t.Errorf("verdict %v with %d wait timeouts, want violated on suspicion alone", st, out.WaitTimeouts)
	}
}

// TestDriverWaitBoundHaltsUndecided withholds p1's round-2 frame from p2 —
// p1 is alive and unsuspected, so the frame is simply lost — until now
// passes p2's wait bound. p2 must halt without round 2's transition,
// keeping a decision it already took, and count the expiry; closing the
// round on what arrived is an omission outside the crash model.
func TestDriverWaitBoundHaltsUndecided(t *testing.T) {
	for _, tc := range []struct {
		alg     rounds.Algorithm
		initial []model.Value
		decided bool // p2's decision before the starved round
		want    model.Value
	}{
		{consensus.FloodSetWS{}, vals(3, 1, 2), false, 1},
		{consensus.COptFloodSetWS{}, vals(5, 5, 5), true, 5},
	} {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			reg := obs.NewRegistry()
			d := newDriver(reg, tc.alg, rounds.RWS, tc.initial, 1, nil)
			var events obs.Collector
			d.sl.events = &events
			lost := func(f sentFrame) verdict {
				if f.from == 1 && f.to == 2 && f.round == 2 {
					return loseIt
				}
				return fileIt
			}
			for i := 0; i < 8; i++ {
				d.step(t, lost)
			}
			if st := &d.sl.states[1]; st.round != 2 || d.out != nil {
				t.Fatalf("before the bound: p2 in round %d, outcome %v; want p2 waiting in round 2", st.round, d.out)
			}
			d.now = d.now.Add(driverBound)
			out := d.run(t, lost)
			p2 := out.Nodes[1]
			if out.Decided[1] != tc.decided || p2.Rounds != 1 || p2.WaitTimeouts != 1 || p2.Crashed ||
				tc.decided && (out.Decisions[1] != tc.want || p2.DecidedAt != 1) {
				t.Errorf("p2 = %+v, decided %v (%d); want halted after round 1, decided %v, one expiry",
					p2, out.Decided[1], int64(out.Decisions[1]), tc.decided)
			}
			for _, i := range []int{0, 2} {
				if !out.Decided[i] || out.Decisions[i] != tc.want || out.Nodes[i].WaitTimeouts != 0 {
					t.Errorf("p%d = %+v, want decided %d on complete rounds", i+1, out.Nodes[i], int64(tc.want))
				}
			}
			if out.WaitTimeouts != 1 || d.w.run.metrics.waitTimeouts.Value() != 1 || reg.Counter(MetricNodeWaitTimeouts).Value() != 1 {
				t.Errorf("expiries: outcome %d, engine %d, metric %d; want 1 each", out.WaitTimeouts,
					d.w.run.metrics.waitTimeouts.Value(), reg.Counter(MetricNodeWaitTimeouts).Value())
			}
			// A halt, not a crash: p2 closes no round 2 and emits no crash.
			for _, ev := range events.Events() {
				if ev.Proc == 2 && (ev.Type == obs.EventCrash || ev.Type == obs.EventRecv && ev.Round == 2) {
					t.Errorf("p2 emitted %+v after the expiry", ev)
				}
			}
		})
	}
}
