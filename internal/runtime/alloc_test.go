package runtime

import (
	goruntime "runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
)

// The saturated engine's shape: FloodSetWS at n=5, t=2 over the default
// mesh, a 5 ms / 3 s heartbeat detector, distinct proposals and a closed
// loop holding satWindow instances open; fc, when non-nil, faults the mesh.
const (
	satN, satT = 5, 2
	satWindow  = 256
)

// satLoop keeps satWindow instances open on one engine, replacing every
// completion with a new instance.
type satLoop struct {
	tb   testing.TB
	e    *Engine
	done chan InstanceOutcome
	next uint64
}

func startSaturated(tb testing.TB, fc *faults.Config) *satLoop {
	tb.Helper()
	// In flight plus completed-but-unread never exceeds the window, so the
	// callback never blocks a worker.
	s := &satLoop{tb: tb, done: make(chan InstanceOutcome, satWindow)}
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: satN, T: satT,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  3 * time.Second,
		OnInstanceDone:  func(_ uint64, out InstanceOutcome) { s.done <- out },
		Faults:          fc,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.e = e
	tb.Cleanup(func() { _ = e.Close() })
	for i := 0; i < satWindow; i++ {
		s.open()
	}
	return s
}

// open admits the next instance: node id proposes inst·64 + id, so every
// node's proposal differs.
func (s *satLoop) open() {
	inst := s.next
	s.next++
	if _, err := s.e.Open(func(id model.ProcessID) model.Value { return model.Value(inst)*64 + model.Value(id) }); err != nil {
		s.tb.Fatal(err)
	}
}

// commit waits for k completions, replacing each, and fails on one that did
// not reach agreement cleanly.
func (s *satLoop) commit(k int) {
	for i := 0; i < k; i++ {
		out := <-s.done
		if _, st := out.Agreement(); st != AgreementReached || out.WaitTimeouts > 0 || out.Err != nil {
			s.tb.Fatalf("instance ended %v with %d wait timeouts, err %v", st, out.WaitTimeouts, out.Err)
		}
		s.open()
	}
}

// BenchmarkEngineSaturated: one op is one commit of the saturated closed
// loop; allocs/op is allocations per commit, process-wide (detectors and
// mesh included).
func BenchmarkEngineSaturated(b *testing.B) {
	s := startSaturated(b, nil)
	s.commit(2 * satWindow) // warm-up: the recycled buffers reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	start, cpu := time.Now(), selfCPU()
	s.commit(b.N)
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "commits/s")
	b.ReportMetric(float64((selfCPU()-cpu).Microseconds())/float64(b.N), "cpu-us/commit")
}

// selfCPU is the process's user+system CPU time so far: the engine's cost
// on every core, which commits/s alone hides once the host is not idle.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestSaturatedAllocsPerCommit: the round path allocates no storage per
// message. A flood automaton broadcasts one immutable W it re-boxes only when
// W grows, and a receiver files its sender's own message rather than decoding
// the frame, so a commit of the saturated loop (60 round frames) costs a
// fixed handful of allocations. (Outside the TestEngine prefix: the race
// detector's instrumentation allocates, and the test skips under -race.)
func TestSaturatedAllocsPerCommit(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own")
	}
	const (
		commits    = 3000
		allocsCeil = 45
		bytesCeil  = 5500
	)
	s := startSaturated(t, nil)
	s.commit(2 * satWindow)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	s.commit(commits)
	goruntime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / commits
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / commits
	t.Logf("%.1f allocs and %.0f B per commit over %d commits", allocs, bytes, commits)
	if allocs > allocsCeil {
		t.Errorf("%.1f allocs per commit, want at most %d", allocs, allocsCeil)
	}
	if bytes > bytesCeil {
		t.Errorf("%.0f B allocated per commit, want at most %d", bytes, bytesCeil)
	}
}

// TestChaosGoroutinesBounded: a fault injector starts no goroutine per
// packet — a spiked or reordered packet waits in the mesh's delivery queue —
// so the saturated loop's goroutine peak under spikes and reorders stays
// that of the same loop fault-free.
func TestChaosGoroutinesBounded(t *testing.T) {
	peak := func(fc *faults.Config) int {
		s := startSaturated(t, fc)
		defer func() { _ = s.e.Close() }()
		most := 0
		for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
			s.commit(50)
			if g := goruntime.NumGoroutine(); g > most {
				most = g
			}
		}
		return most
	}
	free := peak(nil)
	chaos := peak(&faults.Config{Seed: 1, Default: faults.LinkFaults{
		Spike: 0.2, SpikeMin: time.Millisecond, SpikeMax: 3 * time.Millisecond, Reorder: 0.2,
	}})
	t.Logf("goroutine peak: %d fault-free, %d under spikes and reorders", free, chaos)
	if chaos > free+2 {
		t.Errorf("goroutine peak under chaos %d, want at most the fault-free %d + 2", chaos, free)
	}
}
