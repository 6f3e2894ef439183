package fd

import (
	"testing"

	"repro/internal/model"
)

// pattern builds a failure pattern with the given crash times (0 entries
// mean "correct", matching none of the real crash times used here).
func pattern(t *testing.T, n int, crashes map[model.ProcessID]model.Time) *model.FailurePattern {
	t.Helper()
	fp := model.NewFailurePattern(n)
	for p, ct := range crashes {
		if err := fp.SetCrash(p, ct); err != nil {
			t.Fatal(err)
		}
	}
	return fp
}

func TestClassStrings(t *testing.T) {
	names := map[Class]string{
		P: "P", EventuallyP: "◇P", S: "S", EventuallyS: "◇S",
		Q: "Q", EventuallyQ: "◇Q", W: "W", EventuallyW: "◇W",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
	for _, a := range []Accuracy{StrongAccuracy, WeakAccuracy, EventualStrongAccuracy, EventualWeakAccuracy} {
		if a.String() == "" {
			t.Errorf("accuracy %d has empty name", int(a))
		}
	}
}

func TestHistoryIntervals(t *testing.T) {
	h := NewHistory(3)
	if err := h.AddInterval(1, 2, 5, 10); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInterval(1, 2, 8, 15); err != nil {
		t.Fatal(err)
	}
	if !h.Suspects(1, 2, 5) || !h.Suspects(1, 2, 14) || h.Suspects(1, 2, 15) || h.Suspects(1, 2, 4) {
		t.Error("interval merge/containment wrong")
	}
	if got := h.At(1, 9); got != model.Singleton(2) {
		t.Errorf("At = %v, want {p2}", got)
	}
	if h.PermanentlySuspectedFrom(1, 2) != model.TimeNever {
		t.Error("bounded suspicion reported as permanent")
	}
	if err := h.AddInterval(1, 2, 20, model.TimeNever); err != nil {
		t.Fatal(err)
	}
	if got := h.PermanentlySuspectedFrom(1, 2); got != 20 {
		t.Errorf("PermanentlySuspectedFrom = %v, want 20", got)
	}
	if h.Suspects(1, 2, 19) || !h.Suspects(1, 2, 20) || !h.Suspects(1, 2, 1_000_000) {
		t.Error("a permanent suspicion must start at 20 and never end")
	}
}

func TestHistoryValidation(t *testing.T) {
	h := NewHistory(2)
	if err := h.AddInterval(0, 1, 0, 5); err == nil {
		t.Error("invalid observer accepted")
	}
	if err := h.AddInterval(1, 2, 5, 5); err == nil {
		t.Error("empty interval accepted")
	}
	if err := h.AddInterval(1, 2, -1, 5); err == nil {
		t.Error("negative start accepted")
	}
}

// TestGeneratedHistoriesSatisfyTheirClass: each generator's output
// satisfies its class's axioms for many seeds and failure patterns.
func TestGeneratedHistoriesSatisfyTheirClass(t *testing.T) {
	horizon := model.Time(100)
	patterns := []*model.FailurePattern{
		pattern(t, 4, nil),
		pattern(t, 4, map[model.ProcessID]model.Time{2: 10}),
		pattern(t, 4, map[model.ProcessID]model.Time{1: 0, 3: 40}),
	}
	classes := []Class{P, EventuallyP, S, EventuallyS, Q, EventuallyQ, W, EventuallyW}
	for _, fp := range patterns {
		for _, c := range classes {
			for seed := int64(0); seed < 20; seed++ {
				h, err := Generate(c, fp, GenOptions{
					Horizon: horizon, MaxDetectionDelay: 7, Seed: seed, FalseSuspicionRate: 0.7,
				})
				if err != nil {
					t.Fatal(err)
				}
				if v := Satisfies(c, fp, h, horizon); len(v) != 0 {
					t.Fatalf("%v seed=%d fp=%v: %s", c, seed, fp, v[0].Error())
				}
			}
		}
	}
}

// TestHierarchySeparation: generated ◇P histories (with false suspicions)
// violate P's strong accuracy, and generated ◇S histories violate ◇P's
// eventual strong accuracy — the hierarchy is strict on these samples.
func TestHierarchySeparation(t *testing.T) {
	fp := pattern(t, 4, map[model.ProcessID]model.Time{4: 50})
	horizon := model.Time(100)

	foundEPviolatesP := false
	foundESviolatesEP := false
	for seed := int64(0); seed < 50; seed++ {
		opts := GenOptions{Horizon: horizon, MaxDetectionDelay: 5, Seed: seed, FalseSuspicionRate: 0.9}
		ep, err := GenerateEventuallyPerfect(fp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(CheckStrongAccuracy(fp, ep, horizon)) > 0 {
			foundEPviolatesP = true
		}
		es, err := GenerateEventuallyStrong(fp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(CheckEventualStrongAccuracy(fp, es, horizon)) > 0 {
			foundESviolatesEP = true
		}
	}
	if !foundEPviolatesP {
		t.Error("no generated ◇P history violated strong accuracy; generator not adversarial")
	}
	if !foundESviolatesEP {
		t.Error("no generated ◇S history violated eventual strong accuracy; generator not adversarial")
	}
}

func TestCheckersCatchViolations(t *testing.T) {
	fp := pattern(t, 3, map[model.ProcessID]model.Time{3: 10})
	horizon := model.Time(50)

	// Missing suspicion of the crashed p3: strong AND weak completeness fail.
	empty := NewHistory(3)
	if len(CheckStrongCompleteness(fp, empty, horizon)) == 0 {
		t.Error("strong completeness violation missed")
	}
	if len(CheckWeakCompleteness(fp, empty, horizon)) == 0 {
		t.Error("weak completeness violation missed")
	}

	// Premature suspicion: accuracy fails.
	early := NewHistory(3)
	if err := early.AddInterval(1, 3, 5, model.TimeNever); err != nil {
		t.Fatal(err)
	}
	if err := early.AddInterval(2, 3, 10, model.TimeNever); err != nil {
		t.Fatal(err)
	}
	if err := early.AddInterval(1, 2, 0, model.TimeNever); err != nil {
		t.Fatal(err)
	}
	if len(CheckStrongAccuracy(fp, early, horizon)) == 0 {
		t.Error("strong accuracy violation missed (p3 suspected at 5, crashes at 10)")
	}
	// Weak accuracy: p1 is never suspected, so it holds...
	if v := CheckWeakAccuracy(fp, early, horizon); len(v) != 0 {
		t.Errorf("weak accuracy should hold (p1 unsuspected): %v", v[0].Error())
	}
	// ...until p1 is suspected too.
	if err := early.AddInterval(2, 1, 0, model.TimeNever); err != nil {
		t.Fatal(err)
	}
	if len(CheckWeakAccuracy(fp, early, horizon)) == 0 {
		t.Error("weak accuracy violation missed (every correct process suspected)")
	}
	if len(CheckEventualStrongAccuracy(fp, early, horizon)) == 0 {
		t.Error("eventual strong accuracy violation missed")
	}
	if len(CheckEventualWeakAccuracy(fp, early, horizon)) == 0 {
		t.Error("eventual weak accuracy violation missed")
	}
}

func TestWeakCompletenessSatisfiedByOneObserver(t *testing.T) {
	fp := pattern(t, 3, map[model.ProcessID]model.Time{3: 10})
	h := NewHistory(3)
	if err := h.AddInterval(1, 3, 12, model.TimeNever); err != nil {
		t.Fatal(err)
	}
	horizon := model.Time(50)
	if v := CheckWeakCompleteness(fp, h, horizon); len(v) != 0 {
		t.Errorf("weak completeness should hold: %v", v[0].Error())
	}
	if len(CheckStrongCompleteness(fp, h, horizon)) == 0 {
		t.Error("strong completeness should fail (p2 never suspects p3)")
	}
}

func TestGenerateUnknownClass(t *testing.T) {
	fp := pattern(t, 2, nil)
	if _, err := Generate(Class(99), fp, GenOptions{}); err == nil {
		t.Error("unknown class accepted")
	}
}
