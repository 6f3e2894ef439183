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

func TestSweepPrintsRunCount(t *testing.T) {
	code, out, errOut := runCLI(t, "-alg", "floodset", "-model", "RS", "-n", "3", "-t", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "FloodSet in RS (n=3, t=1): 225 runs explored, 0 violations") {
		t.Errorf("sweep summary missing from:\n%s", out)
	}
}

func TestUnknownNamesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "NoSuchAlg"},
		{"-model", "XS"},
		{"-no-such-flag"},
	} {
		code, out, errOut := runCLI(t, args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with only a diagnostic", args, code, out, errOut)
		}
	}
}

func TestRefuteRWS(t *testing.T) {
	code, out, errOut := runCLI(t, "-alg", "A1", "-model", "RWS", "-refute")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "refutation of A1 (n=3, t=1): uniform agreement violation") {
		t.Errorf("refutation verdict missing from:\n%s", out)
	}
}
