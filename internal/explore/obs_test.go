package explore

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

func TestExploreMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	var progressCalls int
	var last Progress
	stats, err := Runs(rounds.RS, consensus.FloodSet{}, []model.Value{0, 1, 2}, 1,
		Options{
			Metrics:       reg,
			Progress:      func(p Progress) { progressCalls++; last = p },
			ProgressEvery: 10,
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for metric, want := range map[string]int{
		MetricRuns:      stats.Runs,
		MetricPlans:     stats.Plans,
		MetricForks:     stats.Clones,
		MetricTruncated: stats.Truncated,
	} {
		if got := snap.Counter(metric); got != int64(want) {
			t.Errorf("%s = %d, want %d (stats: %v)", metric, got, want, stats)
		}
	}
	// The forked engines count their rounds into the same registry.
	if got := snap.Counter(obs.Label(rounds.MetricRounds, "model", "RS")); got == 0 {
		t.Error("exploration executed no instrumented rounds")
	}
	if wantCalls := stats.Runs / 10; progressCalls != wantCalls {
		t.Errorf("progress called %d times over %d runs, want %d", progressCalls, stats.Runs, wantCalls)
	}
	if last.Runs == 0 || last.RunsPerSec <= 0 {
		t.Errorf("last progress snapshot is empty: %+v", last)
	}
	// Without ExpectedRuns there is no completion estimate.
	if last.Expected != 0 || last.ETA != 0 {
		t.Errorf("unestimated exploration reported Expected=%d ETA=%v", last.Expected, last.ETA)
	}
}

func TestProgressETA(t *testing.T) {
	var snaps []Progress
	_, err := Runs(rounds.RS, consensus.FloodSet{}, []model.Value{0, 1, 2}, 1,
		Options{
			ExpectedRuns:  1 << 30, // far beyond the real space: ETA stays positive throughout
			Progress:      func(p Progress) { snaps = append(snaps, p) },
			ProgressEvery: 10,
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress callbacks")
	}
	for _, p := range snaps {
		if p.Expected != 1<<30 {
			t.Fatalf("Expected = %d, want %d", p.Expected, 1<<30)
		}
		if p.RunsPerSec > 0 && p.ETA <= 0 {
			t.Fatalf("snapshot %+v: positive rate but no ETA", p)
		}
	}
}

func TestExploreTruncatedCounted(t *testing.T) {
	reg := obs.NewRegistry()
	// A 1-round horizon with t=1 cuts FloodSet (which needs t+1 rounds)
	// before any decision, so every visited run is truncated.
	stats, err := Runs(rounds.RS, consensus.FloodSet{}, []model.Value{0, 1}, 1,
		Options{MaxRounds: 1, Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated != stats.Runs || stats.Truncated == 0 {
		t.Errorf("stats = %+v, want all runs truncated", stats)
	}
	if got := reg.Snapshot().Counter(MetricTruncated); got != int64(stats.Truncated) {
		t.Errorf("truncated counter = %d, want %d", got, stats.Truncated)
	}
}

func TestRefutationCounted(t *testing.T) {
	metric := MetricRefutations
	before := obs.Default.Counter(metric).Value()
	ref, err := RefuteRoundOneRWS(consensus.FloodSetWS{}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref == nil {
		t.Fatal("expected a refutation of FloodSetWS round-1 decisions")
	}
	if after := obs.Default.Counter(metric).Value(); after != before+1 {
		t.Errorf("refutations counter went %d → %d, want +1", before, after)
	}
}
