package latency

import (
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/rounds"
)

func computeOrDie(t *testing.T, kind rounds.ModelKind, alg rounds.Algorithm, n, tol int) *Degrees {
	t.Helper()
	d, err := Compute(kind, alg, n, tol, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Violations != 0 {
		t.Fatalf("%s/%v: %d specification violations during latency exploration", alg.Name(), kind, d.Violations)
	}
	return d
}

func TestConfigurationsCount(t *testing.T) {
	cfgs := Configurations(3)
	if len(cfgs) != 9 {
		t.Fatalf("Configurations(3) = %d configs, want 2^3+1 = 9", len(cfgs))
	}
	for _, c := range cfgs {
		if len(c) != 3 {
			t.Errorf("config %v has length %d, want 3", c, len(c))
		}
	}
}

// TestFloodSetDegrees checks the textbook numbers: FloodSet always decides
// at exactly round t+1, so every latency measure equals t+1.
func TestFloodSetDegrees(t *testing.T) {
	d := computeOrDie(t, rounds.RS, consensus.FloodSet{}, 3, 1)
	if d.Lat != 2 || d.LatMax != 2 || d.Lambda != 2 {
		t.Errorf("FloodSet degrees = lat %d, Lat %d, Λ %d; want all 2 (t+1)", d.Lat, d.LatMax, d.Lambda)
	}
	for f, v := range d.LatByF {
		if v != 2 {
			t.Errorf("Lat(FloodSet,%d) = %d, want 2", f, v)
		}
	}
}

// TestCOptDegrees reproduces §5.2: lat(C_OptFloodSet) = 1 (the unanimous
// configuration decides at round 1) while Lat(C_OptFloodSet) = t+1 (a mixed
// configuration cannot use the fast path).
func TestCOptDegrees(t *testing.T) {
	for _, tc := range []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
	}{
		{consensus.COptFloodSet{}, rounds.RS},
		{consensus.COptFloodSetWS{}, rounds.RWS},
	} {
		d := computeOrDie(t, tc.kind, tc.alg, 3, 1)
		if d.Lat != 1 {
			t.Errorf("lat(%s) = %d, want 1 (§5.2)", tc.alg.Name(), d.Lat)
		}
		if d.LatMax != 2 {
			t.Errorf("Lat(%s) = %d, want t+1 = 2", tc.alg.Name(), d.LatMax)
		}
	}
}

// TestFOptDegrees reproduces §5.2: Lat(F_OptFloodSet) = 1 — with t initial
// crashes EVERY process decides at round 1, from every configuration, so
// even the max-over-configs measure collapses to 1... as the min over f is
// attained at f = t, not f = 0. The paper: "this contradicts a widespread
// idea that minimal latency degree is typically obtained with failure free
// runs."
func TestFOptDegrees(t *testing.T) {
	for _, tc := range []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
	}{
		{consensus.FOptFloodSet{}, rounds.RS},
		{consensus.FOptFloodSetWS{}, rounds.RWS},
	} {
		d := computeOrDie(t, tc.kind, tc.alg, 3, 1)
		if d.LatMax != 1 {
			t.Errorf("Lat(%s) = %d, want 1 (§5.2)", tc.alg.Name(), d.LatMax)
		}
		// Failure-free runs still take t+1 rounds: Λ = 2 > Lat(A) = 1.
		if d.Lambda != 2 {
			t.Errorf("Λ(%s) = %d, want 2", tc.alg.Name(), d.Lambda)
		}
	}
}

// TestA1Degrees reproduces §5.3: Λ(A1) = 1 in RS — every failure-free run
// decides at round 1 — and no run exceeds 2 rounds.
func TestA1Degrees(t *testing.T) {
	d := computeOrDie(t, rounds.RS, consensus.A1{}, 3, 1)
	if d.Lambda != 1 {
		t.Errorf("Λ(A1) = %d, want 1 (Theorem 5.2)", d.Lambda)
	}
	if d.LatByF[1] != 2 {
		t.Errorf("Lat(A1,1) = %d, want 2", d.LatByF[1])
	}
	if d.Lat != 1 || d.LatMax != 1 {
		t.Errorf("lat(A1) = %d, Lat(A1) = %d; want 1, 1", d.Lat, d.LatMax)
	}
}

// TestRWSLambdaLowerBound reproduces the other half of §5.3: every correct
// RWS algorithm in the suite has Λ(A) ≥ 2, so RS strictly beats RWS on Λ.
func TestRWSLambdaLowerBound(t *testing.T) {
	for _, alg := range consensus.ForModel(rounds.RWS) {
		d := computeOrDie(t, rounds.RWS, alg, 3, 1)
		if d.Lambda < 2 {
			t.Errorf("Λ(%s) = %d in RWS; the paper's lower bound says ≥ 2", alg.Name(), d.Lambda)
		}
	}
}

func TestDegreesString(t *testing.T) {
	d := computeOrDie(t, rounds.RS, consensus.A1{}, 3, 1)
	s := d.String()
	for _, want := range []string{"A1/RS", "Λ=1", "Lat(A,1)=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Degrees.String() = %q missing %q", s, want)
		}
	}
}

// TestComputeParallelEquality pins the determinism-by-merge contract at the
// latency layer: Compute with the parallel explorer yields exactly the same
// Degrees — every measure, both counters and the violation witness — as
// the sequential pass, up to one worker per CPU (Workers -1).
func TestComputeParallelEquality(t *testing.T) {
	cases := []struct {
		kind rounds.ModelKind
		alg  rounds.Algorithm
		n    int
	}{
		{rounds.RS, consensus.FloodSet{}, 3},
		{rounds.RWS, consensus.FloodSetWS{}, 3},
		{rounds.RS, consensus.A1{}, 3},
		{rounds.RWS, consensus.FloodSet{}, 3}, // violates: a witness to agree on
	}
	for _, tc := range cases {
		seq, err := Compute(tc.kind, tc.alg, tc.n, 1, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (seq.Witness != nil) != (seq.Violations > 0) {
			t.Errorf("%s/%v: %d violations but witness %v", tc.alg.Name(), tc.kind, seq.Violations, seq.Witness)
		}
		for _, w := range []int{1, 2, 4, -1} {
			par, err := Compute(tc.kind, tc.alg, tc.n, 1, explore.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if seq.String() != par.String() || seq.Runs != par.Runs || seq.Violations != par.Violations {
				t.Errorf("%s/%v workers=%d: %v (runs=%d viol=%d), sequential %v (runs=%d viol=%d)",
					tc.alg.Name(), tc.kind, w, par, par.Runs, par.Violations, seq, seq.Runs, seq.Violations)
			}
			if render(par.Witness) != render(seq.Witness) {
				t.Errorf("%s/%v workers=%d: witness\n%s\nsequential witness\n%s",
					tc.alg.Name(), tc.kind, w, render(par.Witness), render(seq.Witness))
			}
		}
	}
}

// render is a witness's narrative, empty for none.
func render(run *rounds.Run) string {
	if run == nil {
		return ""
	}
	return rounds.RenderRun(run)
}
