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
//     sender completes no round beyond r+1) is checked on every emulated
//     run rather than assumed.
package emul

import (
	"fmt"

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

// Result summarizes an emulated execution at the round level, mirroring the
// fields of rounds.Run that the checkers need.
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

// missed calls f(p, r, j) for every round r that p completed without pj's
// round-r message.
func (r *Result) missed(f func(p, round int, j model.ProcessID)) {
	for p := 1; p <= r.N; p++ {
		// Only rounds p actually completed count; arrivals for an
		// in-progress round are necessarily partial.
		for round := 1; round <= r.CompletedRounds[p] && round < len(r.ReceivedFrom[p]); round++ {
			missing := model.FullSet(r.N).Minus(r.ReceivedFrom[p][round]).Remove(model.ProcessID(p))
			missing.ForEach(func(j model.ProcessID) bool {
				f(p, round, j)
				return true
			})
		}
	}
}

// PendingCount counts the pending messages of the run under both guises:
// late arrivals (PendingObserved) plus messages whose sender completed the
// round — hence finished sending — but whose receiver closed that round
// without them and they never arrived within the run.
func (r *Result) PendingCount() int {
	count := len(r.PendingObserved)
	r.missed(func(_, round int, j model.ProcessID) {
		if len(r.SentThrough) > int(j) && r.SentThrough[j] >= round {
			count++
		}
	})
	return count
}

// CheckWeakRoundSynchrony verifies Lemma 4.1's guarantee on an emulated
// run: if pi completed round r without a message from pj (and pj had
// started the execution), then pj completes no round beyond r+1 and pj
// crashes. Violations falsify the emulation, not the algorithm.
func (r *Result) CheckWeakRoundSynchrony() []string {
	var out []string
	r.missed(func(p, round int, j model.ProcessID) {
		if r.CompletedRounds[j] > round+1 {
			out = append(out, fmt.Sprintf(
				"p%d completed round %d without p%d's message, yet p%d completed round %d (> %d+1)",
				p, round, j, j, r.CompletedRounds[j], round))
		}
		if !r.Crashed[j] {
			out = append(out, fmt.Sprintf(
				"p%d completed round %d without p%d's message, yet p%d never crashed",
				p, round, j, j))
		}
	})
	return out
}

// CheckRoundSynchrony verifies the RS property on an emulated run: a
// process that misses pj's round-r message sees pj complete no round ≥ r —
// pj failed before finishing its round-r sends — and in particular no
// pending message was ever observed.
func (r *Result) CheckRoundSynchrony() []string {
	var out []string
	for _, pm := range r.PendingObserved {
		out = append(out, fmt.Sprintf(
			"pending message from p%d to p%d at round %d (impossible in RS)",
			pm.Sender, pm.Receiver, pm.Round))
	}
	r.missed(func(p, round int, j model.ProcessID) {
		if !r.Crashed[j] {
			out = append(out, fmt.Sprintf(
				"p%d missed p%d's round-%d message but p%d never crashed", p, j, round, j))
		}
		if r.CompletedRounds[j] >= round {
			out = append(out, fmt.Sprintf(
				"p%d missed p%d's round-%d message but p%d completed round %d",
				p, j, round, j, r.CompletedRounds[j]))
		}
	})
	return out
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
