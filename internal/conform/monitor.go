package conform

import (
	"fmt"

	"repro/internal/rounds"
)

// InvariantViolation is one finding of the online invariant monitor.
type InvariantViolation struct {
	Round  int // 0 for run-level findings
	Detail string
}

// String renders the violation.
func (v InvariantViolation) String() string {
	if v.Round == 0 {
		return v.Detail
	}
	return fmt.Sprintf("round %d: %s", v.Round, v.Detail)
}

// OnlineInvariants evaluates the model's obligations directly on the
// projected execution, before and independently of any replay: the
// crash-stop discipline, the crash budget and the model's synchrony
// property (rounds.CheckReceptions: round synchrony in RS, Lemma 4.1 in
// RWS) over every observed round — not just the replayed horizon — and
// the perfect-detector contract behind RWS
// (strong accuracy: only crashed processes are ever suspected, and a
// retraction is itself proof of imperfection). An empty result means the
// live system stayed inside the model it claims to implement.
func OnlineInvariants(lr *LiveRun) []InvariantViolation {
	var out []InvariantViolation

	for _, p := range lr.WallClockCrashes {
		out = append(out, InvariantViolation{Detail: fmt.Sprintf(
			"%v was killed by the fault injector outside the round structure (crash-stop model violated)", p)})
	}

	for _, v := range rounds.CheckReceptions(lr.Meta.Kind, &lr.Receptions) {
		out = append(out, InvariantViolation{Round: v.Round, Detail: v.Reason})
	}

	// Perfect-detector contract.
	for _, s := range lr.Suspicions {
		if s.Retracted {
			out = append(out, InvariantViolation{Round: s.Round, Detail: fmt.Sprintf(
				"%v retracted its suspicion of %v: the detector was not perfect in this run", s.By, s.Of)})
			continue
		}
		if lr.CrashRound[s.Of] == 0 {
			out = append(out, InvariantViolation{Round: s.Round, Detail: fmt.Sprintf(
				"strong accuracy violated: %v suspected %v, which never crashed", s.By, s.Of)})
		}
	}
	return out
}
