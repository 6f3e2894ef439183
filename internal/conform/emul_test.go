package conform_test

import (
	"testing"

	"repro/internal/conform"
	"repro/internal/emul"
	"repro/internal/model"
	"repro/internal/rounds"
)

// TestEmulRSConformance runs the §4.1 emulation (RS built from the
// synchronous system's step engine) across seeds and crash timings and
// requires every emulated execution to project to a run the RS engine
// replays exactly and the explorer's run space contains: the emulation is
// a faithful implementation of the round model it claims to build.
func TestEmulRSConformance(t *testing.T) {
	t.Run("FloodSet/n3t1", func(t *testing.T) {
		initial := liveInitials(3)
		meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: initial}
		space := liveSpace(t, meta)
		crashed := 0
		for seed := int64(0); seed < 6; seed++ {
			for _, crashStep := range []int{0, 1, 4, 7, 11} {
				var crashAt map[model.ProcessID]int
				if crashStep > 0 {
					crashAt = map[model.ProcessID]int{1: crashStep}
				}
				res, err := emul.RunRS(meta.Alg, initial, 1, 1, 1, 3, seed, crashAt)
				if err != nil {
					t.Fatalf("seed=%d crash@%d: RunRS: %v", seed, crashStep, err)
				}
				lr, err := conform.ProjectEmul(meta, res)
				if err != nil {
					t.Fatalf("seed=%d crash@%d: projecting: %v", seed, crashStep, err)
				}
				rep, err := conform.CheckProjected(lr, conform.Options{Space: space, ExpectConsensus: true})
				if err != nil {
					t.Fatalf("seed=%d crash@%d: checking: %v", seed, crashStep, err)
				}
				if !rep.OK() {
					t.Fatalf("seed=%d crash@%d: emulated run does not conform:\n%s", seed, crashStep, rep)
				}
				if lr.CrashRound[1] != 0 && lr.Horizon >= lr.CrashRound[1] {
					crashed++
				}
			}
		}
		if crashed == 0 {
			t.Fatal("no sweep point produced a pre-decision crash; widen the crashStep grid")
		}
	})

	t.Run("FloodSet/n4t2/two-crashes", func(t *testing.T) {
		initial := liveInitials(4)
		meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 2, Initial: initial}
		space := liveSpace(t, meta)
		for seed := int64(0); seed < 4; seed++ {
			res, err := emul.RunRS(meta.Alg, initial, 2, 1, 1, 4, seed,
				map[model.ProcessID]int{1: 2, 3: 9})
			if err != nil {
				t.Fatalf("seed=%d: RunRS: %v", seed, err)
			}
			lr, err := conform.ProjectEmul(meta, res)
			if err != nil {
				t.Fatalf("seed=%d: projecting: %v", seed, err)
			}
			rep, err := conform.CheckProjected(lr, conform.Options{Space: space, ExpectConsensus: true})
			if err != nil {
				t.Fatalf("seed=%d: checking: %v", seed, err)
			}
			if !rep.OK() {
				t.Fatalf("seed=%d: emulated run does not conform:\n%s", seed, rep)
			}
		}
	})

	t.Run("A1/n3t1/failure-free", func(t *testing.T) {
		initial := liveInitials(3)
		meta := conform.Meta{Alg: algByName(t, "A1"), Kind: rounds.RS, T: 1, Initial: initial}
		space := liveSpace(t, meta)
		for seed := int64(0); seed < 6; seed++ {
			res, err := emul.RunRS(meta.Alg, initial, 1, 2, 2, 3, seed, nil)
			if err != nil {
				t.Fatalf("seed=%d: RunRS: %v", seed, err)
			}
			lr, err := conform.ProjectEmul(meta, res)
			if err != nil {
				t.Fatalf("seed=%d: projecting: %v", seed, err)
			}
			rep, err := conform.CheckProjected(lr, conform.Options{Space: space, ExpectConsensus: true})
			if err != nil {
				t.Fatalf("seed=%d: checking: %v", seed, err)
			}
			if !rep.OK() {
				t.Fatalf("seed=%d: emulated run does not conform:\n%s", seed, rep)
			}
		}
	})
}

// TestEmulRWSConformance sweeps the §4.2 emulation (RWS built from the
// asynchronous system with a perfect detector) across seeds and crash
// timings and requires every execution to conform outright: a sender whose
// round-r message a process closed the round without crashes by the end of
// round r+1 (Lemma 4.1), which is exactly when the round engine's
// obligation rule demands the crash. Enough sweep points of both
// failure-free and crashed kinds must occur.
func TestEmulRWSConformance(t *testing.T) {
	initial := liveInitials(3)
	meta := conform.Meta{Alg: algByName(t, "FloodSetWS"), Kind: rounds.RWS, T: 1, Initial: initial}
	space := liveSpace(t, meta)
	conformantFree, conformantCrashed := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		for _, crashStep := range []int{0, 1, 3, 5, 8, 12} {
			var crashAt map[model.ProcessID]int
			if crashStep > 0 {
				crashAt = map[model.ProcessID]int{1: crashStep}
			}
			res, err := emul.RunRWS(meta.Alg, initial, 1, 4, seed, crashAt)
			if err != nil {
				t.Fatalf("seed=%d crash@%d: RunRWS: %v", seed, crashStep, err)
			}
			lr, err := conform.ProjectEmul(meta, res)
			if err != nil {
				t.Fatalf("seed=%d crash@%d: projecting: %v", seed, crashStep, err)
			}
			rep, err := conform.CheckProjected(lr, conform.Options{Space: space, ExpectConsensus: true})
			if err != nil {
				t.Fatalf("seed=%d crash@%d: checking: %v", seed, crashStep, err)
			}
			if !rep.OK() {
				t.Fatalf("seed=%d crash@%d: emulated run does not conform:\n%s", seed, crashStep, rep)
			}
			if lr.CrashRound[1] != 0 && lr.Horizon >= lr.CrashRound[1] {
				conformantCrashed++
			} else {
				conformantFree++
			}
		}
	}
	t.Logf("conformant: %d failure-free, %d with an in-horizon crash", conformantFree, conformantCrashed)
	if conformantFree == 0 {
		t.Error("no failure-free sweep point conformed")
	}
	if conformantCrashed == 0 {
		t.Error("no crashed sweep point conformed; adjust the crashStep grid")
	}
}
