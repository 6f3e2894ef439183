// Package emul realizes the paper's Section 4 emulations: it runs
// round-based algorithms (rounds.Algorithm) on top of the step-level
// engines of package step, in both directions of the paper's comparison.
//
//   - RS from SS (§4.1): computation proceeds in lock-step rounds paced by
//     each process's own step count. In round r a process spends its first
//     n−1 steps sending the round's messages and then pads with empty steps
//     up to a deadline K_r chosen so that every round-r message has
//     arrived. The paper notes the padding k is "a function of n, Δ, Φ and
//     r"; the recurrence implemented here is
//
//     K_0 = 0,   K_r = (Φ+1)·(K_{r−1} + n−1) + Δ
//
//     Process synchrony guarantees that by a process's local step
//     (Φ+1)·(K_{r−1}+n−1) every *alive* peer has finished its round-r
//     sends (and a crashed peer's partial sends happened even earlier);
//     message synchrony then delivers them within Δ further own-steps.
//     Round synchrony follows: a missing round-r message proves the sender
//     failed before sending it. The exponential growth of K_r is itself a
//     faithful reproduction of the emulation's cost.
//
//   - RWS from SP (§4.2): a process sends its round-r messages and then
//     keeps taking steps until, for every peer, it has received that peer's
//     round-r message or the perfect failure detector suspects the peer.
//     Messages that arrive after their round was closed are *pending*: they
//     are dropped, exactly as in the paper. Lemma 4.1 (a pending message's
//     sender crashes by the end of round r+1, so it never completes round
//     r+1) is checked on every emulated run rather than assumed, by
//     rounds.WeakRoundSynchrony over Result.Receptions.
package emul

import (
	"repro/internal/model"
	"repro/internal/rounds"
)

// roundMsg is the wire format of both emulations: a round number plus the
// round-model payload (nil payload = the round's null message, which the
// RWS emulation must still transmit so receivers can distinguish "null"
// from "pending").
type roundMsg struct {
	Round   int
	Payload rounds.Message
}

// Result summarizes an emulated execution at the round level; Receptions
// maps it onto the record the round properties are checked over.
type Result struct {
	Algorithm string
	N, T      int

	// DecidedAtRound[p] is the round at whose completion p decided (0 =
	// never); DecisionOf[p] the value.
	DecidedAtRound []int
	DecisionOf     []model.Value
	Decided        []bool

	// CompletedRounds[p] counts the transitions p executed.
	CompletedRounds []int
	// SentThrough[p] is the last round whose send phase p finished.
	SentThrough []int
	// Crashed[p] reports whether p crashed during the execution.
	Crashed []bool

	// ReceivedFrom[p][r] is the set of senders whose round-r message p
	// received (index r is 1-based; entry 0 unused).
	ReceivedFrom [][]model.ProcSet

	// PendingObserved lists (sender, round) pairs whose message arrived
	// after the receiver closed the round — the paper's pending messages.
	PendingObserved []PendingMessage

	// Steps is the number of global steps the execution took.
	Steps int
}

// PendingMessage identifies one pending (late) message occurrence.
type PendingMessage struct {
	Sender   model.ProcessID
	Receiver model.ProcessID
	Round    int
}

// Latency returns the number of rounds until all correct processes decided.
func (r *Result) Latency() (int, bool) {
	lat := 0
	for p := 1; p <= r.N; p++ {
		if r.Crashed[p] {
			continue
		}
		if !r.Decided[p] {
			return 0, false
		}
		if r.DecidedAtRound[p] > lat {
			lat = r.DecidedAtRound[p]
		}
	}
	return lat, true
}

// Receptions returns the run as its receivers saw it: p completed round r
// iff it executed r transitions, it received exactly the senders it filed
// before closing the round, a message filed after the close is late, and
// a crashed process fell during the round after its last completed one.
func (r *Result) Receptions() *rounds.Receptions {
	h := rounds.NewReceptions(r.N, r.T)
	for p := 1; p <= r.N; p++ {
		pid := model.ProcessID(p)
		for round := 1; round <= r.CompletedRounds[p]; round++ {
			rd := h.At(round)
			rd.Completed = rd.Completed.Add(pid)
			rd.Received[p] = r.ReceivedFrom[p][round].Remove(pid)
		}
		if r.Crashed[p] {
			h.Crash(pid, r.CompletedRounds[p]+1)
		}
	}
	for _, pm := range r.PendingObserved {
		rd := h.At(pm.Round)
		rd.Late[pm.Receiver] = rd.Late[pm.Receiver].Add(pm.Sender)
	}
	return h
}

// PendingCount counts the pending messages of the run: each message a
// completer closed its round without although its sender sent it — it
// arrived late, or its sender finished the round's sends and it never
// arrived within the run. Each (receiver, sender, round) counts once.
func (r *Result) PendingCount() int {
	count := 0
	for _, rd := range r.Receptions().Rounds {
		var sent model.ProcSet
		for j := 1; j <= r.N; j++ {
			if r.SentThrough[j] >= rd.Round {
				sent = sent.Add(model.ProcessID(j))
			}
		}
		rd.Completed.ForEach(func(i model.ProcessID) bool {
			count += rd.Missed(i).Intersect(sent.Union(rd.Late[i])).Count()
			return true
		})
	}
	return count
}

// DeadlineSchedule computes the per-round local-step deadlines K_1..K_max
// of the RS-from-SS emulation.
func DeadlineSchedule(n, phi, delta, maxRounds int) []int {
	ks := make([]int, maxRounds+1)
	for r := 1; r <= maxRounds; r++ {
		ks[r] = (phi+1)*(ks[r-1]+n-1) + delta
	}
	return ks
}
