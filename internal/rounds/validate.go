package rounds

import (
	"fmt"

	"repro/internal/model"
)

// Violation describes where a run record breaks a model's synchrony
// property, the crash budget or a structural invariant. It is both a test
// aid and the mechanism by which experiment E10 certifies the engines and
// emulations.
type Violation struct {
	Round    int
	Sender   model.ProcessID
	Receiver model.ProcessID
	Reason   string
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("round %d: %v → %v: %s", v.Round, v.Sender, v.Receiver, v.Reason)
}

// Reception is one round as its receivers saw it.
type Reception struct {
	Round int
	// Completed is the set of processes that closed this round (applied
	// their transition).
	Completed model.ProcSet
	// Crashed is the set of processes that crashed during this round.
	Crashed model.ProcSet
	// Received[i] is the set of senders whose round message p_i had when it
	// closed the round (index 0 unused; only meaningful for i ∈
	// Completed). Self-delivery is internal and never included. A null
	// message counts as received: it is still an envelope on the wire.
	Received []model.ProcSet
	// Late[i] is the set of senders whose round message reached p_i after
	// it closed the round — the paper's pending messages, observed.
	Late []model.ProcSet
}

// Missed returns the senders other than i whose round message p_i closed
// the round without (late arrivals included).
func (rd *Reception) Missed(i model.ProcessID) model.ProcSet {
	return model.FullSet(len(rd.Received) - 1).Minus(rd.Received[i]).Remove(i)
}

// Receptions is an execution at the round level, receiver by receiver: the
// one record round synchrony, Lemma 4.1 and the crash budget are stated
// over. Run.Receptions, emul.Result and conform.LiveRun produce it.
type Receptions struct {
	N, T       int
	Rounds     []Reception // Rounds[r-1] is round r
	CrashRound []int       // 1..N; 0 = never crashed
}

// NewReceptions returns an empty record of n processes tolerating t crashes.
func NewReceptions(n, t int) *Receptions {
	return &Receptions{N: n, T: t, CrashRound: make([]int, n+1)}
}

// At returns round r's record, growing the record as needed.
func (h *Receptions) At(r int) *Reception {
	for len(h.Rounds) < r {
		h.Rounds = append(h.Rounds, Reception{
			Round:    len(h.Rounds) + 1,
			Received: make([]model.ProcSet, h.N+1),
			Late:     make([]model.ProcSet, h.N+1),
		})
	}
	return &h.Rounds[r-1]
}

// Crash records that p crashed during round r.
func (h *Receptions) Crash(p model.ProcessID, r int) {
	h.CrashRound[p] = r
	rd := h.At(r)
	rd.Crashed = rd.Crashed.Add(p)
}

// AliveAtEnd reports whether p survives round r (does not crash during r
// or earlier).
func (h *Receptions) AliveAtEnd(p model.ProcessID, r int) bool {
	cr := h.CrashRound[p]
	return cr == 0 || cr > r
}

// Receptions returns the run as its receivers saw it: every process that
// survives a round completes it and hears the senders that reached it,
// plus every surviving sender that addressed it a null message.
func (r *Run) Receptions() *Receptions {
	h := NewReceptions(r.N, r.T)
	copy(h.CrashRound, r.CrashRound)
	for idx := range r.Rounds {
		rr := &r.Rounds[idx]
		rd := h.At(rr.Round)
		rd.Crashed = rr.Crashed
		rd.Completed = rr.AliveStart.Minus(rr.Crashed)
		rd.Completed.ForEach(func(i model.ProcessID) bool {
			rd.Received[i] = rr.heardBy(i)
			return true
		})
	}
	return h
}

// RoundSynchrony states the RS property (paper §4): if p_i completes round
// r without p_j's message, p_j crashed before sending it — so every
// completer heard every sender that survived the round, and no round
// message arrived late. One violation per (receiver, sender, round).
func RoundSynchrony(h *Receptions) []Violation {
	var out []Violation
	for idx := range h.Rounds {
		rd := &h.Rounds[idx]
		rd.Completed.ForEach(func(i model.ProcessID) bool {
			late := rd.Late[i]
			rd.Missed(i).Union(late).ForEach(func(j model.ProcessID) bool {
				switch {
				case late.Has(j):
					out = append(out, Violation{Round: rd.Round, Sender: j, Receiver: i, Reason: fmt.Sprintf(
						"round synchrony violated: %v received the message of %v after closing the round", i, j)})
				case h.AliveAtEnd(j, rd.Round):
					out = append(out, Violation{Round: rd.Round, Sender: j, Receiver: i, Reason: fmt.Sprintf(
						"round synchrony violated: %v closed the round without the message of %v, which survived it", i, j)})
				}
				return true
			})
			return true
		})
	}
	return out
}

// WeakRoundSynchrony states the RWS property, the paper's Lemma 4.1: if
// p_i completes round r without p_j's message, p_j crashes by the end of
// round r+1. One violation per (receiver, sender, round).
func WeakRoundSynchrony(h *Receptions) []Violation {
	var out []Violation
	for idx := range h.Rounds {
		rd := &h.Rounds[idx]
		r := rd.Round
		rd.Completed.ForEach(func(i model.ProcessID) bool {
			rd.Missed(i).ForEach(func(j model.ProcessID) bool {
				if cr := h.CrashRound[j]; cr == 0 || cr > r+1 {
					out = append(out, Violation{Round: r, Sender: j, Receiver: i, Reason: fmt.Sprintf(
						"Lemma 4.1 violated: %v closed the round without the message of %v, but %v does not crash by the end of round %d (crash round %d, 0 = never)",
						i, j, j, r+1, cr)})
				}
				return true
			})
			return true
		})
	}
	return out
}

// CrashBudget states the resilience bound: at most T processes crash.
func CrashBudget(h *Receptions) []Violation {
	crashes := 0
	for p := 1; p <= h.N; p++ {
		if h.CrashRound[p] != 0 {
			crashes++
		}
	}
	if crashes > h.T {
		return []Violation{{Reason: fmt.Sprintf(
			"%d processes crashed, exceeding the resilience bound t=%d", crashes, h.T)}}
	}
	return nil
}

// CheckReceptions returns the record's violations of the crash budget and
// of kind's synchrony property.
func CheckReceptions(kind ModelKind, h *Receptions) []Violation {
	out := CrashBudget(h)
	switch kind {
	case RS:
		out = append(out, RoundSynchrony(h)...)
	case RWS:
		out = append(out, WeakRoundSynchrony(h)...)
	}
	return out
}

// CrashRecord states that a record's two views of its crashes agree:
// CrashRound[p] == r iff p is in round r's Crashed set. One violation per
// process whose views differ.
func CrashRecord(h *Receptions) []Violation {
	var out []Violation
	for p := 1; p <= h.N; p++ {
		pid := model.ProcessID(p)
		cr := h.CrashRound[p]
		var in []int // the rounds whose Crashed set holds p
		for idx := range h.Rounds {
			if h.Rounds[idx].Crashed.Has(pid) {
				in = append(in, h.Rounds[idx].Round)
			}
		}
		if (len(in) != 0 || cr != 0) && (len(in) != 1 || in[0] != cr) {
			out = append(out, Violation{Round: cr, Sender: pid, Reason: fmt.Sprintf(
				"%v has crash round %d (0 = never) but the rounds recording its crash are %v", pid, cr, in)})
		}
	}
	return out
}

// CheckCrashConsistency verifies the structural invariants every run must
// satisfy regardless of model: crashes are permanent, crashed processes
// neither send nor receive afterwards, alive sets shrink monotonically, and
// each process's crash round is the one round recording its crash
// (CrashRecord).
func CheckCrashConsistency(run *Run) []Violation {
	out := CrashRecord(run.Receptions())
	prevAlive := model.FullSet(run.N)
	for idx := range run.Rounds {
		rr := &run.Rounds[idx]
		r := rr.Round
		if rr.AliveStart != prevAlive {
			out = append(out, Violation{Round: r, Reason: fmt.Sprintf(
				"alive-at-start %v does not match survivors of previous round %v", rr.AliveStart, prevAlive)})
		}
		if !rr.Crashed.Subset(rr.AliveStart) {
			out = append(out, Violation{Round: r, Reason: "a process crashed twice"})
		}
		for j := 1; j <= run.N; j++ {
			pj := model.ProcessID(j)
			if !rr.AliveStart.Has(pj) && !rr.Sent[j].Empty() {
				out = append(out, Violation{Round: r, Sender: pj, Reason: "a crashed process sent a message"})
			}
			if !rr.Reached[j].Subset(rr.Sent[j]) {
				out = append(out, Violation{Round: r, Sender: pj, Reason: "reached set is not a subset of sent set"})
			}
		}
		prevAlive = rr.AliveStart.Minus(rr.Crashed)
	}
	return out
}

// Admissible reports whether the run satisfies the structural invariants,
// the crash budget and the synchrony property of its own model.
func Admissible(run *Run) []Violation {
	return append(CheckCrashConsistency(run), CheckReceptions(run.Model, run.Receptions())...)
}
