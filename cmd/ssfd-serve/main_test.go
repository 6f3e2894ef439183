package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// syncBuffer lets the test read the daemon's stdout while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`http://[0-9.]+:[0-9]+`)

// startDaemon runs the daemon on a free port and returns its base URL, the
// signal channel that stops it, and the channel its exit code lands on.
func startDaemon(t *testing.T, args []string) (string, chan<- os.Signal, <-chan int, *syncBuffer) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stop, stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if url := addrRe.FindString(stdout.String()); url != "" {
			return url, stop, exit, stdout
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address\nstdout: %s\nstderr: %s", stdout, stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeDrainOnSignal is the daemon's end-to-end: start it, drive real
// HTTP traffic, SIGTERM it, and require a graceful drain with a clean
// conformance verdict (exit 0).
func TestServeDrainOnSignal(t *testing.T) {
	url, stop, exit, stdout := startDaemon(t, []string{"-nodes", "3", "-t", "1", "-conform"})
	ctx := context.Background()
	client := &serve.Client{BaseURL: url}

	id, err := client.Propose(ctx, 42)
	if err != nil {
		t.Fatalf("Propose over TCP: %v", err)
	}
	st, err := client.Instance(ctx, id, true)
	if err != nil || st.Value == nil || *st.Value != 42 {
		t.Fatalf("Instance = %+v, %v", st, err)
	}
	if _, err := client.CAS(ctx, "boot", nil, 7); err != nil {
		t.Fatalf("CAS over TCP: %v", err)
	}

	stop <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\n%s", code, stdout)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	out := stdout.String()
	for _, want := range []string{"draining", "conformance: checked", "kv keys"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestServeDefaultAlgorithm: the start-up banner names the algorithm the
// daemon serves without -alg, and it is the one serve.New falls back to.
func TestServeDefaultAlgorithm(t *testing.T) {
	_, stop, exit, stdout := startDaemon(t, []string{"-nodes", "3", "-t", "1"})
	stop <- syscall.SIGTERM
	if code := <-exit; code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout)
	}
	srv, err := serve.New(serve.Config{N: 3, T: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fallback := srv.Engine().Algorithm().Name()
	banner := strings.SplitN(stdout.String(), "\n", 2)[0]
	if fallback != "C_OptFloodSetWS" || !strings.Contains(banner, " "+fallback+" ") {
		t.Errorf("banner %q, serve.New fallback %q: want both C_OptFloodSetWS", banner, fallback)
	}
}

// TestServeRefusesNonUniformAlgorithms: a write is committed at its
// instance's first decision, so the algorithms that are not uniform in RWS
// (A1 is the repo's own witness) are refused at the flag, naming the served
// set; the three RWS algorithms are not.
func TestServeRefusesNonUniformAlgorithms(t *testing.T) {
	for _, name := range []string{"FloodSet", "C_OptFloodSet", "F_OptFloodSet", "A1", "a1"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-model", "RWS", "-alg", name}, make(chan os.Signal), &out, &errOut); code != 2 {
			t.Errorf("-alg %s: exit %d, want 2", name, code)
		}
		for _, want := range []string{"FloodSetWS, C_OptFloodSetWS, F_OptFloodSetWS", "first decision"} {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("-alg %s: stderr %q does not say %q", name, errOut.String(), want)
			}
		}
	}
	for _, name := range []string{"FloodSetWS", "C_OptFloodSetWS", "f_optfloodsetws"} {
		_, stop, exit, stdout := startDaemon(t, []string{"-alg", name})
		stop <- syscall.SIGTERM
		if code := <-exit; code != 0 {
			t.Errorf("-alg %s: exit %d\n%s", name, code, stdout)
		}
		if banner := stdout.String(); !strings.Contains(strings.ToLower(banner), " "+strings.ToLower(name)+" ") {
			t.Errorf("-alg %s: banner %q does not name it", name, banner)
		}
	}
}

func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-alg", "NoSuchAlg"},
		{"-model", "RS"},
		{"-detector", "nosuch"},
		{"-faults", "loss=banana"},
		{"-badflag"},
	}
	for _, args := range cases {
		stop := make(chan os.Signal)
		var out, errOut bytes.Buffer
		if code := run(args, stop, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}

// TestServeRejectsResilienceOutOfRange: a -t outside [0, nodes) is a config
// error the engine refuses, reported with exit 1 before anything is served.
// (A daemon that did start drains at once on the queued signal.)
func TestServeRejectsResilienceOutOfRange(t *testing.T) {
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-t", "-2"}, stop, &out, &errOut); code != 1 {
		t.Errorf("-t -2: exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "t=-2 out of range [0,3)") {
		t.Errorf("-t -2: stderr does not name the bound:\n%s", errOut.String())
	}
}

// TestServeUsageStatesTheMesh: -h says the nodes' mesh is in-process with a
// simulated delay.
func TestServeUsageStatesTheMesh(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, make(chan os.Signal), &out, &errOut); code != 2 {
		t.Errorf("-h: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "simulated uniform [0, 1ms) delay") {
		t.Errorf("-h does not state the simulated delay:\n%s", errOut.String())
	}
}
