package rounds_test

import (
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/rounds"
)

func TestRenderRun(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
	}}
	run, err := rounds.RunAlgorithm(rounds.RS, consensus.FloodSet{}, []model.Value{0, 5, 9}, 1, script)
	if err != nil {
		t.Fatal(err)
	}
	out := rounds.RenderRun(run)
	for _, want := range []string{
		"FloodSet in RS: n=3 t=1",
		"p1=0 p2=5 p3=9",
		"crashes {p1}",
		"NOT received by {p3}",
		"p1=✝r1",
		"latency degree |r| = 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderRun missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderRunUndecided(t *testing.T) {
	// A1 in the §5.3 RWS scenario leaves nobody undecided, so craft a
	// truncated run instead: FloodSet cut at round 1 with t=1.
	eng, err := rounds.NewEngine(rounds.RS, consensus.FloodSet{}, []model.Value{1, 2}, 1, rounds.WithRoundLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Execute(rounds.NoFailures, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := rounds.RenderRun(run)
	if !strings.Contains(out, "⊥") {
		t.Errorf("undecided marker missing:\n%s", out)
	}
	if strings.Contains(out, "latency degree") {
		t.Errorf("truncated run should not report a latency:\n%s", out)
	}
}

func TestRenderRunPendingDrop(t *testing.T) {
	// RWS: p1 stays alive through round 1 but its message to p3 is pending
	// (weak round synchrony), then p1 crashes in round 2 as obligated.
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(3)}},
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.FullSet(3).Remove(1)}},
	}}
	run, err := rounds.RunAlgorithm(rounds.RWS, consensus.FloodSetWS{}, []model.Value{0, 5, 9}, 1, script)
	if err != nil {
		t.Fatal(err)
	}
	out := rounds.RenderRun(run)
	lines := strings.Split(out, "\n")
	round1 := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "round 1:") {
			round1 = i
		}
	}
	if round1 < 0 {
		t.Fatalf("round 1 header missing:\n%s", out)
	}
	if strings.Contains(lines[round1], "crashes") {
		t.Errorf("round 1 must have no crash (drop by a live sender):\n%s", out)
	}
	if want := "p1 → {p2} (NOT received by {p3})"; !strings.Contains(out, want) {
		t.Errorf("pending-drop line %q missing:\n%s", want, out)
	}
	if !strings.Contains(out, "crashes {p1}") {
		t.Errorf("obligated round-2 crash missing:\n%s", out)
	}
}
