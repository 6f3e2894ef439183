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
// values it has ever seen. Senders transmit a snapshot; receivers must
// treat the set as read-only.
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

// broadcast returns a message slice addressing every process (including the
// sender itself: self-delivery models the paper's "a message has arrived
// from every process" counting, under which a process counts its own
// round-1 value among the n).
func broadcast(n int, m rounds.Message) []rounds.Message {
	out := make([]rounds.Message, n+1)
	for i := 1; i <= n; i++ {
		out[i] = m
	}
	return out
}

// unionW folds every received WMsg into w and returns the set of senders a
// message arrived from.
func unionW(w *model.ValueSet, received []rounds.Message) model.ProcSet {
	var arrived model.ProcSet
	for j := 1; j < len(received); j++ {
		if received[j] == nil {
			continue
		}
		arrived = arrived.Add(model.ProcessID(j))
		if m, ok := received[j].(WMsg); ok {
			w.UnionWith(m.W)
		}
	}
	return arrived
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
