// Package consensus implements the uniform consensus algorithms studied in
// Section 5 of Charron-Bost, Guerraoui and Schiper (DSN 2000):
//
//   - FloodSet (the paper's Figure 1) for the RS model;
//   - FloodSetWS (Figure 2) for the RWS model;
//   - C_OptFloodSet and C_OptFloodSetWS (§5.2), which decide at round 1
//     when all n round-1 messages carry the same value, achieving lat(A)=1;
//   - F_OptFloodSet (Figure 3) and F_OptFloodSetWS, which decide at round 1
//     when exactly n−t round-1 messages arrive, achieving Lat(A)=1;
//   - A1 (Figure 4), the t=1 algorithm with Λ(A1)=1 in RS whose fast path
//     is unsafe in RWS — the paper's efficiency-separation witness.
//
// The uniform consensus specification (§5.1): every process starts with an
// input from a totally ordered set V and must reach an irrevocable decision
// such that (uniform validity) if all processes start with v then v is the
// only possible decision, (uniform agreement) no two processes — correct or
// faulty — decide differently, and (termination) all correct processes
// eventually decide.
package consensus

import (
	"strings"

	"repro/internal/model"
	"repro/internal/rounds"
)

// WMsg is the flooding message: the sender's current W, the set of all
// values it has ever seen. A sent set is immutable (rounds.Process): the
// sender keeps the storage as its own W and grows W only into new storage,
// and receivers only read it.
type WMsg struct {
	W model.ValueSet
}

// DMsg is F_OptFloodSet's (D, decision) message: a round-1 decider forces
// its decision on every other process at round 2.
type DMsg struct {
	V model.Value
}

// A1Val is A1's plain value message (p1's round-1 broadcast and p2's
// round-2 fallback broadcast).
type A1Val struct {
	V model.Value
}

// A1Fwd is A1's (p1, w) message: a round-1 decider reports p1's value at
// round 2.
type A1Fwd struct {
	V model.Value
}

// bcast is an automaton's cached broadcast: msg, boxed once, addressed to
// every process — the sender itself included: self-delivery models the
// paper's "a message has arrived from every process" counting, under which
// a process counts its own round-1 value among the n. A sent message is
// immutable, so msg is kept until the automaton's message changes (its
// owner then sets msg to nil) and out is refilled in place.
type bcast struct {
	msg rounds.Message
	out []rounds.Message // 1..n
}

// send returns the broadcast of msg.
func (b *bcast) send(n int) []rounds.Message {
	if b.out == nil {
		b.out = make([]rounds.Message, n+1)
	}
	for i := 1; i <= n; i++ {
		b.out[i] = b.msg
	}
	return b.out
}

// fork is the broadcast a clone starts from: the same immutable msg, never
// the same out — the parallel explorer runs clones on other goroutines.
func (b bcast) fork() bcast { return bcast{msg: b.msg} }

// flood is the state the FloodSet family shares: W, the set of every value
// seen, its cached broadcast and the decision.
type flood struct {
	cfg      rounds.ProcConfig
	w        model.ValueSet
	out      bcast // of WMsg{W}, unless an automaton sends something else
	decision model.Value
	decided  bool
	initial  [1]model.Value // the first W's storage, never written again
}

// start sets f up in place (the first W lives in f itself).
func (f *flood) start(cfg rounds.ProcConfig) {
	f.cfg, f.initial[0] = cfg, cfg.Initial
	f.w = model.ValueSetOfSorted(f.initial[:])
}

// Msgs implements rounds.Process: "if rounds ≤ t then send W to all
// processes" — with the paper's pre-increment counter this means rounds
// 1..t+1 in engine numbering. The message shares W's storage: W only ever
// grows into new storage (unionW).
func (f *flood) Msgs(round int) []rounds.Message {
	if round > f.cfg.T+1 {
		return nil
	}
	if f.out.msg == nil {
		f.out.msg = WMsg{W: f.w}
	}
	return f.out.send(f.cfg.N)
}

// unionW folds every WMsg received from a sender outside halt into W and
// returns the set of senders any message arrived from. W grows into new
// storage, built in one allocation; a round that adds nothing allocates
// nothing.
func (f *flood) unionW(received []rounds.Message, halt model.ProcSet) model.ProcSet {
	var arrived model.ProcSet
	var buf [8]model.ValueSet
	sets := buf[:0]
	for j := 1; j < len(received); j++ {
		if received[j] == nil {
			continue
		}
		arrived = arrived.Add(model.ProcessID(j))
		if m, ok := received[j].(WMsg); ok && !halt.Has(model.ProcessID(j)) {
			sets = append(sets, m.W)
		}
	}
	if w := f.w.Union(sets...); w.Len() != f.w.Len() {
		f.w, f.out.msg = w, nil
	}
	return arrived
}

// decideMin decides min(W) unless already decided.
func (f *flood) decideMin() {
	if !f.decided {
		if v, ok := f.w.Min(); ok {
			f.decision, f.decided = v, true
		}
	}
}

// Decision implements rounds.Process.
func (f *flood) Decision() (model.Value, bool) { return f.decision, f.decided }

// fork is the state a clone starts from: W and the message are immutable
// and shared, the broadcast slice is not.
func (f *flood) fork() flood {
	c := *f
	c.out = f.out.fork()
	return c
}

// arrivedSet returns the set of senders any message arrived from.
func arrivedSet(received []rounds.Message) model.ProcSet {
	var arrived model.ProcSet
	for j := 1; j < len(received); j++ {
		if received[j] != nil {
			arrived = arrived.Add(model.ProcessID(j))
		}
	}
	return arrived
}

// All returns every algorithm in this package, keyed by the model it is
// designed for. Used by the experiment drivers to sweep the whole suite.
func All() []rounds.Algorithm {
	return []rounds.Algorithm{
		FloodSet{},
		FloodSetWS{},
		COptFloodSet{},
		COptFloodSetWS{},
		FOptFloodSet{},
		FOptFloodSetWS{},
		A1{},
	}
}

// ByName looks an algorithm of All up by its Name, ignoring case — the
// binaries' -alg flag.
func ByName(name string) (rounds.Algorithm, bool) {
	for _, a := range All() {
		if strings.EqualFold(a.Name(), name) {
			return a, true
		}
	}
	return nil, false
}

// ForModel returns the algorithms designed for the given round model, i.e.
// the ones the paper proves correct there.
func ForModel(kind rounds.ModelKind) []rounds.Algorithm {
	switch kind {
	case rounds.RS:
		return []rounds.Algorithm{FloodSet{}, COptFloodSet{}, FOptFloodSet{}, A1{}}
	case rounds.RWS:
		return []rounds.Algorithm{FloodSetWS{}, COptFloodSetWS{}, FOptFloodSetWS{}}
	default:
		return nil
	}
}
