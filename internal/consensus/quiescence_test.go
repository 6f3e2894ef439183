package consensus

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
)

// haltRounds drives a failure-free lock-step run under the rounds.Process
// halting contract — a process that has decided and whose Msgs(r) is nil is
// halted at r and never called again — and returns the round each process
// halted at (index 0 unused; 0 = still running after limit rounds).
func haltRounds(alg rounds.Algorithm, initial []model.Value, t, limit int) []int {
	n := len(initial)
	procs := make([]rounds.Process, n+1)
	for p := 1; p <= n; p++ {
		procs[p] = alg.New(rounds.ProcConfig{ID: model.ProcessID(p), N: n, T: t, Initial: initial[p-1]})
	}
	halted := make([]int, n+1)
	for r := 1; r <= limit; r++ {
		sent := make([][]rounds.Message, n+1)
		for p := 1; p <= n; p++ {
			if halted[p] != 0 {
				continue
			}
			sent[p] = procs[p].Msgs(r)
			if _, decided := procs[p].Decision(); decided && sent[p] == nil {
				halted[p] = r
			}
		}
		for p := 1; p <= n; p++ {
			if halted[p] != 0 {
				continue
			}
			received := make([]rounds.Message, n+1)
			for j := 1; j <= n; j++ {
				if sent[j] != nil {
					received[j] = sent[j][p]
				}
			}
			procs[p].Trans(r, received)
		}
	}
	return halted
}

// TestQuiescenceContract pins what the live engine's halting rule relies on
// (see rounds.Process): in a failure-free run every process of every
// algorithm in the repo goes quiet — decided, Msgs nil — at the same round,
// t+2, so nobody halts while a peer still waits for its message. Unanimous
// proposals cover the round-1 deciders (C_Opt, F_Opt, EarlyDecide, A1),
// which must keep relaying through round t+1.
func TestQuiescenceContract(t *testing.T) {
	algs := append(All(), EarlyStoppingFloodSet{}, EarlyDecideFloodSet{}, nbac.ForRS(), nbac.ForRWS())
	for _, size := range []struct{ n, t int }{{3, 1}, {5, 2}} {
		distinct, unanimous := make([]model.Value, size.n), make([]model.Value, size.n)
		for i := range distinct {
			distinct[i], unanimous[i] = model.Value(i%2), 1 // 0/1 are also valid NBAC votes
		}
		for _, alg := range algs {
			if _, isA1 := alg.(A1); isA1 && size.t != 1 {
				continue // A1 is defined for t = 1 only
			}
			for name, initial := range map[string][]model.Value{"distinct": distinct, "unanimous": unanimous} {
				t.Run(fmt.Sprintf("%s/n=%d,t=%d/%s", alg.Name(), size.n, size.t, name), func(t *testing.T) {
					halted := haltRounds(alg, initial, size.t, size.t+3)
					for p := 1; p <= size.n; p++ {
						if halted[p] != size.t+2 {
							t.Errorf("p%d halted at round %d, want %d (decided and Msgs(t+2) == nil, not before)",
								p, halted[p], size.t+2)
						}
					}
				})
			}
		}
	}
}
