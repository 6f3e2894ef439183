package check

import (
	"strings"
	"testing"
)

// TestFailureDetails exercises the failure path of every predicate and
// pins the counterexample text each one reports: the experiments print
// these Details verbatim, so their content is part of the contract.
func TestFailureDetails(t *testing.T) {
	tests := []struct {
		name     string
		result   func() Result
		property string
		want     []string // substrings the Detail must contain
	}{
		{
			name: "uniform agreement names both deciders and rounds",
			result: func() Result {
				f := fabricated{n: 3, initial: []int64{1, 2, 3},
					decidedAt: []int{1, 2, 1}, decisions: []int64{1, 2, 1}}
				return UniformAgreement(f.run())
			},
			property: "uniform agreement",
			want:     []string{"p1 decided 1 (round 1)", "p2 decided 2 (round 2)"},
		},
		{
			name: "uniform agreement counts a faulty decider",
			result: func() Result {
				f := fabricated{n: 2, initial: []int64{1, 2}, decidedAt: []int{1, 2},
					decisions: []int64{1, 2}, crashRound: []int{2, 0}}
				return UniformAgreement(f.run())
			},
			property: "uniform agreement",
			want:     []string{"p1 decided 1", "p2 decided 2"},
		},
		{
			name: "agreement (correct only) names both correct deciders",
			result: func() Result {
				f := fabricated{n: 3, initial: []int64{1, 2, 3},
					decidedAt: []int{1, 1, 1}, decisions: []int64{1, 1, 2}}
				return Agreement(f.run())
			},
			property: "agreement (correct only)",
			want:     []string{"correct p1 decided 1", "correct p3 decided 2"},
		},
		{
			name: "uniform validity names the unanimous proposal and the deviant",
			result: func() Result {
				f := fabricated{n: 2, initial: []int64{5, 5},
					decidedAt: []int{1, 1}, decisions: []int64{5, 6}}
				return UniformValidity(f.run())
			},
			property: "uniform validity",
			want:     []string{"all processes proposed 5", "p2 decided 6"},
		},
		{
			name: "value origin lists the proposal set",
			result: func() Result {
				f := fabricated{n: 2, initial: []int64{5, 6},
					decidedAt: []int{1, 1}, decisions: []int64{7, 7}}
				return ValueOrigin(f.run())
			},
			property: "value origin",
			want:     []string{"p1 decided 7", "no process proposed", "{5,6}"},
		},
		{
			name: "termination reports truncation",
			result: func() Result {
				f := fabricated{n: 2, initial: []int64{1, 2},
					decidedAt: []int{1, 1}, decisions: []int64{1, 1}, truncated: true}
				return Termination(f.run())
			},
			property: "termination",
			want:     []string{"truncated", "undecided live processes"},
		},
		{
			name: "termination names the undecided correct processes",
			result: func() Result {
				f := fabricated{n: 3, initial: []int64{1, 2, 3}, decidedAt: []int{1, 0, 0}}
				return Termination(f.run())
			},
			property: "termination",
			want:     []string{"correct processes {p2,p3} never decided"},
		},
		{
			name: "model admissibility counts violations and quotes the first",
			result: func() Result {
				f := fabricated{n: 2, initial: []int64{1, 2}, decidedAt: []int{1, 1},
					decisions: []int64{1, 1}, crashRound: []int{0, 1}}
				run := f.run()
				run.T = 0 // one crash now exceeds the resilience bound
				results := Consensus(run)
				return results[len(results)-1]
			},
			property: "model admissibility",
			want:     []string{"1 violations, first:", "exceeding the resilience bound t=0"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := tt.result()
			if res.Property != tt.property {
				t.Fatalf("Property = %q, want %q", res.Property, tt.property)
			}
			if res.OK {
				t.Fatalf("expected a violation, got OK")
			}
			for _, w := range tt.want {
				if !strings.Contains(res.Detail, w) {
					t.Errorf("Detail %q does not contain %q", res.Detail, w)
				}
			}
			if s := res.String(); !strings.Contains(s, "VIOLATED — "+res.Detail) {
				t.Errorf("String %q does not embed the Detail", s)
			}
		})
	}
}

// TestAgreementExemptsFaultyDeciders pins the §5.1 weakening Agreement
// models: a decider that later crashes is exempt, so a run may pass
// Agreement while failing UniformAgreement.
func TestAgreementExemptsFaultyDeciders(t *testing.T) {
	f := fabricated{n: 3, initial: []int64{1, 2, 3}, decidedAt: []int{1, 2, 2},
		decisions: []int64{1, 2, 2}, crashRound: []int{2, 0, 0}}
	run := f.run()
	if res := Agreement(run); !res.OK {
		t.Errorf("Agreement rejected a run whose only dissenter crashed: %s", res.Detail)
	}
	if res := UniformAgreement(run); res.OK {
		t.Error("UniformAgreement accepted the same run")
	}
	clean := fabricated{n: 2, initial: []int64{1, 2}, decidedAt: []int{1, 1}, decisions: []int64{1, 1}}
	if res := Agreement(clean.run()); !res.OK {
		t.Errorf("Agreement rejected a clean run: %s", res.Detail)
	}
}
