package step_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sdd"
	"repro/internal/step"
)

func TestRenderSteps(t *testing.T) {
	alg := sdd.NewSS(1, 1)
	eng, err := step.NewEngine(alg, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sched := &step.FairScheduler{Stop: step.StopWhenDecided(model.Singleton(sdd.DefaultObserver))}
	tr, err := eng.Run(sched, 100)
	if err != nil {
		t.Fatal(err)
	}
	out := step.RenderSteps(tr, 0)
	if !strings.Contains(out, "p1 steps") || !strings.Contains(out, "p2 decided 1") {
		t.Errorf("RenderSteps output incomplete:\n%s", out)
	}
	// Truncation marker.
	short := step.RenderSteps(tr, 1)
	if !strings.Contains(short, "more events") {
		t.Errorf("truncation marker missing:\n%s", short)
	}
}

func TestRenderStepsTruncationCount(t *testing.T) {
	eng, err := step.NewEngine(sdd.NewSS(4, 4), []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sched := &step.ScriptScheduler{Decisions: []step.Decision{
		{Proc: 1}, {Proc: 2}, {Proc: 1}, {Proc: 2}, {Proc: 1}, {Proc: 2},
	}}
	tr, err := eng.Run(sched, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := len(tr.Events)
	if total != 6 {
		t.Fatalf("scripted trace has %d events, want 6", total)
	}
	out := step.RenderSteps(tr, total-2)
	if want := fmt.Sprintf("… (%d more events)", 2); !strings.Contains(out, want) {
		t.Errorf("marker %q missing:\n%s", want, out)
	}
	// The rendered events stop exactly at the cut.
	if got := strings.Count(out, "\n") - 1 - countDecisionLines(tr); got != total-2 {
		t.Errorf("rendered %d event lines, want %d", got, total-2)
	}
	// maxEvents at or above the event count renders everything, no marker.
	for _, m := range []int{total, total + 7, 0} {
		if strings.Contains(step.RenderSteps(tr, m), "more events") {
			t.Errorf("maxEvents=%d must not truncate", m)
		}
	}
}

func countDecisionLines(tr *step.Trace) int {
	n := 0
	for p := 1; p <= tr.N; p++ {
		if tr.Decided[p] {
			n++
		}
	}
	return n
}
