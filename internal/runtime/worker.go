package runtime

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// engEvent is one worker mailbox entry: a round packet delivered to node,
// whole, or — when slab is non-nil — an instance registration from Open.
// The node's receive function handled the packet's control frames; the
// worker files every round frame itself.
type engEvent struct {
	node model.ProcessID
	pkt  []byte
	slab *instSlab
}

// mailbox is a worker's unbounded inbox. Unbounded by design: a node's
// receive function runs on the mesh's delivery goroutine and must never
// block on a busy worker (a blocked delivery stops feeding the failure
// detector, manufacturing false suspicions), so backpressure is traded for
// memory that is bounded in practice by instances × rounds.
type mailbox struct {
	mu     sync.Mutex
	q      []engEvent
	notify chan struct{}
}

func (mb *mailbox) push(ev engEvent) {
	mb.mu.Lock()
	mb.q = append(mb.q, ev)
	mb.mu.Unlock()
	mb.wake()
}

// wake nudges the worker without queueing anything.
func (mb *mailbox) wake() {
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// empty reports whether the queue is drained (used by the shutdown check:
// a closing worker may not exit with a registration still queued).
func (mb *mailbox) empty() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.q) == 0
}

// drain swaps the queue against the (emptied) spare buffer.
func (mb *mailbox) drain(spare []engEvent) []engEvent {
	mb.mu.Lock()
	q := mb.q
	mb.q = spare[:0]
	mb.mu.Unlock()
	return q
}

// instRow is one round of one (instance, node) automaton: the message it
// sent that round and the senders heard (a null message is a present
// message). Every automaton of an instance lives on one worker, so a frame
// that carries its sender's recorded message (engWorker.sentBy) is filed as
// that message — Trans reads it from the sender's row. Only a frame unlike
// it is decoded, into a map made at the row's first such frame and dropped
// after Trans.
//
// sent is the automaton's self-delivery and every peer's copy: a sent
// message is immutable (rounds.Process), so the row keeps it until the
// instance ends.
type instRow struct {
	got     model.ProcSet
	decoded map[model.ProcessID]rounds.Message
	sent    rounds.Message
}

// instState is one (instance, node) automaton multiplexed on the mesh.
type instState struct {
	proc rounds.Process
	slab *instSlab
	id   model.ProcessID

	round   int32     // round currently executing; 0 = halted
	sent    bool      // this round's messages already transmitted
	queued  bool      // sitting in the worker's dirty list
	started time.Time // when the current round began
	rows    []instRow // index 1..MaxRounds

	decided  bool
	decision model.Value
	out      NodeOutcome
}

// instSlab is one instance's n automata, allocated as a unit when the
// instance is opened and released as a unit when the last automaton halts.
// Keeping each instance in its own slab gives the worker stable automaton
// pointers across dynamic registration (a single growing states slice
// would invalidate pointers on every append).
type instSlab struct {
	inst      uint64
	states    []instState // index id-1
	remaining int         // automata not yet halted
	epoch     time.Time   // RS: round r closes at epoch + r·RoundDuration
	events    obs.Sink    // nil for unobserved instances (the common case)
	crashes   map[model.ProcessID]CrashPlan
	announced bool // OnInstanceDecided has fired
}

// engWorker owns the instances k with k mod Groups == idx: it advances their
// n automata from its mailbox, batches their frames on its own links and
// decodes the packets that carry them.
type engWorker struct {
	run *engineRun
	idx int

	links  []*Batcher // 1..n: node i's round traffic for this worker's instances
	mb     mailbox
	spare  []engEvent
	slabs  []*instSlab // index inst/Groups - base; nil once the instance completed
	base   int         // local index of slabs[0]: the completed prefix is trimmed
	active int
	dirty  []*instState

	suspects     []model.ProcSet  // cached per node, 1..n
	crashed      model.ProcSet    // cached engineRun.crashed
	nextDeadline time.Time        // earliest round deadline among blocked automata
	scratch      []rounds.Message // what Trans is handed
	frame        []byte           // encode scratch: Batcher.Send copies out of it
	payload      []byte           // sentBy's encode scratch

	// Tallied since the last fold, which hands them to the shared instruments.
	encoded   kindTally // frames encoded
	decoded   kindTally // round frames received and split
	roundsRun int64     // automaton rounds closed
	durations obs.HistogramTally
	decisions int64 // (instance, node) decisions
}

// fold hands what the worker counted since the last fold to the shared
// instruments: once per sweep, and before any callback that lets someone
// read them.
func (w *engWorker) fold() {
	er := w.run
	w.encoded.fold(er.ws.AddEncoded)
	w.decoded.fold(er.ws.AddDecoded)
	if w.roundsRun != 0 {
		er.metrics.rounds.Add(w.roundsRun)
		w.roundsRun = 0
	}
	w.durations.Fold()
	if w.decisions != 0 {
		er.decided.Add(w.decisions)
		w.decisions = 0
	}
}

// slabAt maps an owned instance's local index (its id / Groups) to its slab,
// or nil once it completed (late duplicates for a finished instance are
// dropped).
func (w *engWorker) slabAt(local int) *instSlab {
	local -= w.base
	if local < 0 || local >= len(w.slabs) {
		return nil
	}
	return w.slabs[local]
}

// register files a newly opened instance with its owning worker.
func (w *engWorker) register(sl *instSlab) {
	local := int(sl.inst)/len(w.run.workers) - w.base
	for len(w.slabs) <= local {
		w.slabs = append(w.slabs, nil)
	}
	w.slabs[local] = sl
	w.active += len(sl.states)
	for i := range sl.states {
		w.enqueue(&sl.states[i])
	}
}

// enqueue marks st for advancement in the current sweep.
func (w *engWorker) enqueue(st *instState) {
	if st.queued || st.round == 0 {
		return
	}
	st.queued = true
	w.dirty = append(w.dirty, st)
}

// enqueueAll schedules a full rescan — a suspicion changed, a round
// deadline passed or a node crash-stopped, any of which can release (or
// halt) any blocked automaton. The walk is O(in-flight): completed
// instances are trimmed from w.slabs.
func (w *engWorker) enqueueAll() {
	for _, sl := range w.slabs {
		if sl == nil {
			continue
		}
		for i := range sl.states {
			w.enqueue(&sl.states[i])
		}
	}
}

// refreshCrashed re-reads the engine's crash-stopped set and reports
// whether it grew.
func (w *engWorker) refreshCrashed() bool {
	c := model.ProcSet(w.run.crashed.Load())
	if c == w.crashed {
		return false
	}
	w.crashed = c
	return true
}

// refreshSuspects snapshots each live node's suspicion set once per sweep
// and reports whether any changed. Polling here (not per automaton) keeps
// the detector cost independent of the instance count — the whole point. A
// crash-stopped node no longer consults its detector.
func (w *engWorker) refreshSuspects() bool {
	changed := false
	for i := 1; i <= w.run.n; i++ {
		fd := w.run.fds[i]
		if fd == nil || w.crashed.Has(model.ProcessID(i)) {
			continue
		}
		if s := fd.Suspects(); s != w.suspects[i] {
			w.suspects[i] = s
			changed = true
		}
	}
	return changed
}

// loop is the worker's shell around sweep: it alone reads the clock, drains
// the mailbox and polls the detectors, then flushes the batched sends and
// sleeps until traffic, the tick or the next round deadline.
func (w *engWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	tick := min(max(w.run.cfg.SuspectTimeout/4, time.Millisecond), 50*time.Millisecond)
	// One timer serves both wake-up reasons: it is armed to the tick (the
	// suspicion poll) or to the earliest round deadline, whichever is first,
	// and re-armed only after it fired or when a deadline precedes it.
	timer := time.NewTimer(tick)
	defer timer.Stop()
	armed := time.Now().Add(tick)
	fired := false

	for {
		// Crashes before suspicions: see engineRun.crashed.
		rescan := w.refreshCrashed()
		if w.refreshSuspects() || rescan {
			w.enqueueAll()
		}
		// Round stamps and deadline checks share one clock reading per sweep:
		// an automaton is advanced on every delivery, and a clock read per
		// advance is measurable at 10^5 deliveries a second.
		w.spare = w.sweep(w.mb.drain(w.spare), time.Now())
		w.fold()
		// Round completions above queued sends on this worker's links; push
		// them out now, a round's messages together.
		for _, b := range w.links[1:] {
			if err := b.Flush(); err != nil && err != ErrClosed {
				w.run.abort(err)
			}
		}
		// A long-lived engine's workers idle through empty sweeps; they only
		// exit once the engine is closing, every owned automaton has halted
		// and no registration is waiting in the mailbox (Close orders Open
		// registrations strictly before the closing flag).
		if w.active == 0 && w.run.closing.Load() && w.mb.empty() {
			return
		}
		if due := w.nextDeadline; fired || (!due.IsZero() && due.Before(armed)) {
			now, d := time.Now(), tick
			if !due.IsZero() && due.Sub(now) < d {
				d = due.Sub(now)
			}
			if !fired && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
			armed, fired = now.Add(d), false
		}
		select {
		case <-w.mb.notify:
		case <-timer.C:
			fired = true
		case <-w.run.abortCh:
			return
		}
	}
}

// sweep is the round step: it files events (registrations, round packets)
// and advances every automaton a frame, a suspicion or crash change, or now
// passing a deadline released — sends, round closes, transitions, decisions,
// halts. Its only inputs are events, w.suspects, w.crashed and now: it reads
// no clock, mailbox or detector (fd.NoteRound tags an observed instance's),
// so a test steps it with synthetic ones. It hands events back emptied.
func (w *engWorker) sweep(events []engEvent, now time.Time) []engEvent {
	for i := range events {
		w.deliver(&events[i])
		events[i] = engEvent{} // drop slab/payload references for reuse
	}
	if !w.nextDeadline.IsZero() && !now.Before(w.nextDeadline) {
		w.nextDeadline = time.Time{}
		w.enqueueAll()
	}
	for len(w.dirty) > 0 {
		st := w.dirty[len(w.dirty)-1]
		w.dirty = w.dirty[:len(w.dirty)-1]
		st.queued = false
		w.advance(st, now)
	}
	return events[:0]
}

// deliver files one mailbox event: a registration, or a round packet's
// frames into their automata's rows.
func (w *engWorker) deliver(ev *engEvent) {
	if ev.slab != nil {
		w.register(ev.slab)
		return
	}
	// Instance ids only grow and a frame is sent after its instance was
	// opened, so one read after the drain bounds every id the packet carries.
	opened := w.run.opened.Load()
	_ = wire.SplitBatch(ev.pkt, func(frame []byte) error {
		env, payload, err := wire.Split(frame)
		if err != nil || env.Kind.Control() {
			return nil // corrupt, or observed by the receive function
		}
		w.decoded.add(env.Kind, len(frame))
		w.file(ev.node, &env, payload, opened)
		return nil
	})
}

// file puts one round frame delivered to node — its split header and raw
// payload — into its automaton's row. A frame from no other node of the
// mesh, or for an instance never opened or owned by another worker, is
// stray: dropped and counted, never filed into a neighbour's round state.
func (w *engWorker) file(node model.ProcessID, env *wire.Envelope, payload []byte, opened uint64) {
	er := w.run
	groups := uint64(len(er.workers))
	local := env.Instance / groups
	if env.Instance >= opened || env.Instance-local*groups != uint64(w.idx) ||
		env.From < 1 || int(env.From) > er.n || env.From == node {
		er.unknown.Inc()
		return
	}
	sl := w.slabAt(int(local))
	if sl == nil {
		return // instance completed (late duplicate)
	}
	st := &sl.states[int(node)-1]
	r := env.Round
	if st.round == 0 || r < int(st.round) || r > er.maxRounds {
		return // automaton halted, round already closed, or out of range
	}
	row := &st.rows[r]
	// The last frame per sender wins: a record match drops an earlier
	// decoded frame from that sender.
	if w.sentBy(sl, env, payload) {
		delete(row.decoded, env.From)
	} else {
		msg, err := wire.DecodePayload(env.Kind, payload)
		if err != nil {
			return // Split validated the frame; unreachable
		}
		if row.decoded == nil {
			row.decoded = make(map[model.ProcessID]rounds.Message)
		}
		row.decoded[env.From] = msg
	}
	if sl.events != nil && !row.got.Has(env.From) {
		// One arrival per (sender, round): duplicated deliveries must not
		// double a causal tracer's happens-before edges.
		sl.events.Emit(obs.Event{Type: obs.EventArrive, Round: r,
			Proc: int(node), From: int(env.From)})
	}
	row.got = row.got.Add(env.From)
	w.enqueue(st)
}

// sentBy reports whether payload is byte-identical to the encoding of the
// message env's sender recorded for env's round. Any other frame — a
// different message, a peer's hand-made or damaged bytes, a silent sender's
// null frame — is decoded as it came.
func (w *engWorker) sentBy(sl *instSlab, env *wire.Envelope, payload []byte) bool {
	m := sl.states[env.From-1].rows[env.Round].sent
	if m == nil {
		return false
	}
	enc, err := wire.AppendPayload(w.payload[:0], env.Kind, m)
	if err != nil {
		return false // not the kind the frame carries
	}
	w.payload = enc
	return bytes.Equal(enc, payload)
}

// advance drives one automaton as far as it can go: halt if it is quiet
// (decided, nothing to send), otherwise send the current round's messages if
// not yet sent, close the round when its model's close rule allows,
// transition, repeat.
func (w *engWorker) advance(st *instState, now time.Time) {
	er, sl := w.run, st.slab
	peers := model.FullSet(er.n).Remove(st.id)
	for st.round != 0 {
		if w.crashed.Has(st.id) {
			w.crash(st)
			return
		}
		r := int(st.round)
		if !st.sent {
			reach, crashing := er.n-1, false
			if plan := sl.crashes[st.id]; plan.Round == r {
				reach, crashing = plan.Reach, true
			}
			// Quiescence (the rounds.Process contract): decided and nothing left
			// to send is halted. The round never starts — no event, no null
			// frames, no wait. A crash plan for this round still fires.
			msgs := st.proc.Msgs(r)
			if st.decided && msgs == nil && !crashing {
				w.halt(st)
				return
			}
			st.started = now
			if sl.events != nil {
				if fd := er.fds[st.id]; fd != nil {
					fd.NoteRound(r) // tags the detector's suspect/retract events
				}
				sl.events.Emit(obs.Event{Type: obs.EventRoundStart, Round: r, Proc: int(st.id)})
			}
			if err := w.sendRound(st, r, reach, msgs); err != nil {
				er.abort(fmt.Errorf("node %d: %w", st.id, err))
				w.halt(st)
				return
			}
			if crashing {
				// Crash: no transition, no further rounds, in any instance;
				// the node's detector dies with it.
				er.crashNode(st.id)
				if w.refreshCrashed() {
					w.enqueueAll()
				}
				w.crash(st)
				return
			}
			st.sent = true
		}
		row := &st.rows[r]
		// The close rule is the one place the round models differ. RWS: every
		// peer delivered or is suspected (weak round synchrony), the WaitBound
		// deadline being only a liveness guard. RS: the round barrier itself.
		complete := er.cfg.Kind == rounds.RWS &&
			peers.Minus(row.got).Minus(w.suspects[st.id]).Empty()
		if !complete {
			due := st.started.Add(er.cfg.WaitBound)
			if er.cfg.Kind == rounds.RS {
				due = sl.epoch.Add(time.Duration(r) * er.cfg.RoundDuration)
			}
			if now.Before(due) {
				if w.nextDeadline.IsZero() || due.Before(w.nextDeadline) {
					w.nextDeadline = due
				}
				return
			}
			if er.cfg.Kind == rounds.RWS {
				// A live, unsuspected peer's message never came: the mesh lost
				// it, an omission outside the crash model. Closing the round
				// without it could split the instance, so the automaton halts
				// here — no transition, a decision already taken kept — and
				// the expiry is counted.
				st.out.WaitTimeouts++
				er.metrics.waitTimeouts.Inc()
				w.halt(st)
				return
			}
		}
		if sl.events != nil {
			// Reception record, emitted even when empty: round completion
			// itself is what the conformance projector needs to observe.
			got := make([]int, 0, er.n)
			row.got.ForEach(func(j model.ProcessID) bool { got = append(got, int(j)); return true })
			sl.events.Emit(obs.Event{Type: obs.EventRecv, Round: r, Proc: int(st.id), Peers: got})
		}
		// Each sender heard, and st itself, delivered its recorded message
		// unless a frame unlike it was decoded.
		in := w.scratch
		clear(in)
		row.got.Add(st.id).ForEach(func(j model.ProcessID) bool {
			in[j] = sl.states[j-1].rows[r].sent
			return true
		})
		for j, m := range row.decoded {
			in[j] = m
		}
		st.proc.Trans(r, in)
		row.decoded = nil // the round is closed
		st.out.Rounds = st.round
		w.roundsRun++
		w.durations.Observe(now.Sub(st.started).Nanoseconds())
		if !st.decided {
			if v, ok := st.proc.Decision(); ok {
				st.decided = true
				st.decision = v
				st.out.DecidedAt = st.round
				w.decisions++
				if sl.events != nil {
					sl.events.Emit(obs.Event{Type: obs.EventDecide, Round: r,
						Proc: int(st.id), Value: obs.Int64(int64(v))})
				}
				if cb := er.cfg.OnInstanceDecided; cb != nil && !sl.announced {
					// The instance's first decision. As in halt, whoever hears of
					// it may read Stats().Cost next: count this sweep's frames first.
					sl.announced = true
					w.fold()
					cb(sl.inst, v, r)
				}
			}
		}
		st.round++
		st.sent = false
		if int(st.round) > er.maxRounds {
			w.halt(st)
		}
	}
}

// crash halts an automaton of a crash-stopped node, during whatever round
// it had reached.
func (w *engWorker) crash(st *instState) {
	st.out.Crashed = true
	if sink := st.slab.events; sink != nil {
		sink.Emit(obs.Event{Type: obs.EventCrash, Round: int(st.round), Proc: int(st.id)})
	}
	w.halt(st)
}

// halt retires an automaton; when it is the instance's last one, the slab
// is released and the instance resolved.
func (w *engWorker) halt(st *instState) {
	if st.round == 0 {
		return
	}
	st.round = 0
	w.active--
	sl := st.slab
	sl.remaining--
	if sl.remaining > 0 {
		return
	}
	n := w.run.n
	out := InstanceOutcome{
		N:         n,
		Decided:   make([]bool, n),
		Decisions: make([]model.Value, n),
		Nodes:     make([]NodeOutcome, n),
	}
	for i := range sl.states {
		s := &sl.states[i]
		out.Decided[i] = s.decided
		out.Decisions[i] = s.decision
		out.Nodes[i] = s.out
		out.WaitTimeouts += int(s.out.WaitTimeouts)
	}
	w.slabs[int(sl.inst)/len(w.run.workers)-w.base] = nil
	for len(w.slabs) > 0 && w.slabs[0] == nil {
		w.slabs = w.slabs[1:]
		w.base++
	}
	// Whoever learns the instance is done — the callback, a Done() waiter —
	// may read Stats().Cost next: every frame the instance sent or decoded
	// is counted first, not at the end of the sweep.
	w.fold()
	w.run.finish(sl.inst, out)
}
