package conform

import (
	"fmt"

	"repro/internal/emul"
)

// ProjectEmul canonicalizes an emulated execution (package emul: RS built
// from the synchronous system, RWS built from the asynchronous system with
// a perfect detector) into the same LiveRun form the live-cluster
// projector produces, so emulations flow through the identical replay,
// invariant and membership pipeline. The rounds are the emulation's own
// record (emul.Result.Receptions).
func ProjectEmul(meta Meta, res *emul.Result) (*LiveRun, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	n := meta.N()
	if res.N != n {
		return nil, fmt.Errorf("conform: emulated run has n=%d but meta has n=%d", res.N, n)
	}
	rec := res.Receptions()
	lr := newLiveRun(meta)
	lr.Rounds, lr.CrashRound = rec.Rounds, rec.CrashRound
	for p := 1; p <= n; p++ {
		if res.Decided[p] {
			lr.DecidedAt[p] = res.DecidedAtRound[p]
			lr.DecisionOf[p] = res.DecisionOf[p]
		}
	}
	if err := lr.finalize(); err != nil {
		return nil, err
	}
	return lr, nil
}
