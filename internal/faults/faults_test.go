package faults

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// memTransport records what the injector hands it, for driving the
// injector directly.
type memTransport struct {
	id model.ProcessID

	mu     sync.Mutex
	extras []time.Duration // each send's extra delay, in send order
}

func (m *memTransport) LocalID() model.ProcessID { return m.id }

func (m *memTransport) Send(to model.ProcessID, data []byte) error {
	return m.SendAfter(to, data, 0)
}

func (m *memTransport) SendAfter(_ model.ProcessID, _ []byte, extra time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.extras = append(m.extras, extra)
	return nil
}

func (m *memTransport) Listen(func(wire.Packet)) {}
func (m *memTransport) Recv() <-chan wire.Packet { return nil }
func (m *memTransport) Close() error             { return nil }

func (m *memTransport) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.extras)
}

// held returns the extra delay of every send so far.
func (m *memTransport) held() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]time.Duration(nil), m.extras...)
}

// drive sends `sends` messages on each ordered link of an n-process system
// through a fresh injector and returns the rendered decision log.
func drive(t *testing.T, cfg Config, n, sends int) string {
	t.Helper()
	cfg.RecordDecisions = true
	cfg.Metrics = obs.NewRegistry()
	in := NewInjector(cfg)
	for i := 1; i <= n; i++ {
		tr := in.Wrap(&memTransport{id: model.ProcessID(i)})
		for j := 1; j <= n; j++ {
			if i == j {
				continue
			}
			for s := 0; s < sends; s++ {
				if err := tr.Send(model.ProcessID(j), []byte{byte(s)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	_ = in.Close()
	return RenderDecisions(in.Decisions())
}

// renderSchedule is the rendered transition stream — the deterministic
// event timeline a run with this config emits (TestScheduleEventsAndLog
// pins live emission to this order).
func renderSchedule(cfg Config) string {
	var b strings.Builder
	for _, tr := range Schedule(cfg) {
		b.WriteString(tr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeterministicSchedules is the tentpole property: same seed + config
// ⇒ identical fault decisions and identical rendered event stream.
func TestDeterministicSchedules(t *testing.T) {
	property := func(seed int64, drop, dup, reorder, spike uint8, partMS, crashMS uint16) bool {
		cfg := Config{
			Seed: seed,
			Default: LinkFaults{
				Drop:      float64(drop%101) / 100,
				Duplicate: float64(dup%101) / 100,
				Reorder:   float64(reorder%101) / 100,
				Spike:     float64(spike%101) / 100,
				SpikeMin:  time.Millisecond,
				SpikeMax:  3 * time.Millisecond,
			},
			// Topology changes sit far past the send burst so the decision
			// log exercises the link menu, not a racing window boundary.
			Partitions: []Partition{{
				Start: time.Hour + time.Duration(partMS)*time.Millisecond,
				End:   time.Hour + time.Duration(partMS)*time.Millisecond + time.Second,
				Group: model.Singleton(3),
			}},
			Crashes: []NodeCrash{{
				Proc: 2,
				At:   time.Hour + time.Duration(crashMS)*time.Millisecond,
				For:  50 * time.Millisecond,
			}},
		}
		if log1, log2 := drive(t, cfg, 3, 8), drive(t, cfg, 3, 8); log1 != log2 {
			t.Logf("decision logs differ:\n%s\n--- vs ---\n%s", log1, log2)
			return false
		}
		if s1, s2 := renderSchedule(cfg), renderSchedule(cfg); s1 != s2 || s1 == "" {
			t.Logf("rendered schedules differ or empty:\n%s\n--- vs ---\n%s", s1, s2)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := Config{Default: LinkFaults{Drop: 0.5}}
	cfg.Seed = 1
	log1 := drive(t, cfg, 3, 32)
	cfg.Seed = 2
	log2 := drive(t, cfg, 3, 32)
	if log1 == log2 {
		t.Error("seeds 1 and 2 produced identical 192-decision logs")
	}
}

func TestDropAndDuplicate(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInjector(Config{Seed: 7, Default: LinkFaults{Drop: 1}, Metrics: reg})
	defer func() { _ = in.Close() }()
	under := &memTransport{id: 1}
	tr := in.Wrap(under)
	for i := 0; i < 10; i++ {
		if err := tr.Send(2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if under.count() != 0 {
		t.Errorf("%d messages survived Drop=1", under.count())
	}
	if got := reg.Snapshot().Counter(obs.Label(MetricDropped, "reason", "loss")); got != 10 {
		t.Errorf("loss counter = %d, want 10", got)
	}

	in2 := NewInjector(Config{Seed: 7, Default: LinkFaults{Duplicate: 1}})
	defer func() { _ = in2.Close() }()
	under2 := &memTransport{id: 1}
	tr2 := in2.Wrap(under2)
	for i := 0; i < 5; i++ {
		if err := tr2.Send(2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if under2.count() != 10 {
		t.Errorf("Duplicate=1 delivered %d copies of 5 sends, want 10", under2.count())
	}
}

// TestSpikeDelaysBeyondBound: a spiked message is handed to the transport at
// once, held for the spike on top of the network's own delay.
func TestSpikeDelaysBeyondBound(t *testing.T) {
	in := NewInjector(Config{Seed: 3, Default: LinkFaults{
		Spike: 1, SpikeMin: 30 * time.Millisecond, SpikeMax: 30 * time.Millisecond,
	}})
	defer func() { _ = in.Close() }()
	under := &memTransport{id: 1}
	if err := in.Wrap(under).Send(2, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if got := under.held(); len(got) != 1 || got[0] != 30*time.Millisecond {
		t.Errorf("sends held %v, want one held 30ms", got)
	}
}

// TestReorderHoldsBack: a reordered message is held back 2ms, so a send
// right behind it on the link overtakes it.
func TestReorderHoldsBack(t *testing.T) {
	in := NewInjector(Config{Seed: 5, Default: LinkFaults{Reorder: 1}})
	defer func() { _ = in.Close() }()
	under := &memTransport{id: 1}
	if err := in.Wrap(under).Send(2, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if got := under.held(); len(got) != 1 || got[0] != 2*time.Millisecond {
		t.Errorf("sends held %v, want one held 2ms", got)
	}
}

func TestPartitionBlackholesBoundaryOnly(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInjector(Config{
		Partitions: []Partition{{Start: 0, End: time.Hour, Group: model.Singleton(3)}},
		Metrics:    reg,
	})
	defer func() { _ = in.Close() }()
	p1 := &memTransport{id: 1}
	tr1 := in.Wrap(p1)
	if err := tr1.Send(3, []byte("cross")); err != nil {
		t.Fatal(err)
	}
	if err := tr1.Send(2, []byte("inside")); err != nil {
		t.Fatal(err)
	}
	p3 := &memTransport{id: 3}
	tr3 := in.Wrap(p3)
	if err := tr3.Send(1, []byte("cross back")); err != nil {
		t.Fatal(err)
	}
	if p1.count() != 1 {
		t.Errorf("majority side delivered %d, want 1 (intra-group only)", p1.count())
	}
	if p3.count() != 0 {
		t.Errorf("isolated side delivered %d, want 0", p3.count())
	}
	if got := reg.Snapshot().Counter(obs.Label(MetricDropped, "reason", "partition")); got != 2 {
		t.Errorf("partition drop counter = %d, want 2", got)
	}
}

func TestCrashRecoveryWindow(t *testing.T) {
	in := NewInjector(Config{
		Crashes: []NodeCrash{{Proc: 2, At: 0, For: 40 * time.Millisecond}},
	})
	defer func() { _ = in.Close() }()
	under := &memTransport{id: 1}
	tr := in.Wrap(under)
	if err := tr.Send(2, []byte("into the hole")); err != nil {
		t.Fatal(err)
	}
	if under.count() != 0 {
		t.Error("message to blackholed node delivered")
	}
	time.Sleep(60 * time.Millisecond)
	if err := tr.Send(2, []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if under.count() != 1 {
		t.Errorf("post-recovery delivery count = %d, want 1", under.count())
	}
}

func TestScheduleEventsAndLog(t *testing.T) {
	col := &obs.Collector{}
	cfg := Config{
		Partitions: []Partition{{Start: 5 * time.Millisecond, End: 15 * time.Millisecond, Group: model.Singleton(2)}},
		Crashes:    []NodeCrash{{Proc: 1, At: 10 * time.Millisecond, For: 10 * time.Millisecond}},
		Events:     col,
	}
	in := NewInjector(cfg)
	in.Start()
	time.Sleep(40 * time.Millisecond)
	_ = in.Close()

	wantOrder := []obs.EventType{obs.EventPartition, obs.EventCrash, obs.EventHeal, obs.EventRecover}
	events := col.Events()
	if len(events) != len(wantOrder) {
		t.Fatalf("got %d events %v, want %d", len(events), events, len(wantOrder))
	}
	for i, want := range wantOrder {
		if events[i].Type != want {
			t.Errorf("event %d = %s, want %s", i, events[i].Type, want)
		}
	}
	log := in.PartitionLog()
	if len(log) != 4 {
		t.Fatalf("partition log has %d transitions, want 4", len(log))
	}
	if s := log[0].String(); !strings.Contains(s, "partition") || !strings.Contains(s, "p2") {
		t.Errorf("transition rendering = %q", s)
	}
}

func TestFilterRestrictsRandomFaults(t *testing.T) {
	in := NewInjector(Config{
		Default: LinkFaults{Drop: 1},
		Filter:  func(from, to model.ProcessID, data []byte) bool { return data[0] == 'h' },
	})
	defer func() { _ = in.Close() }()
	under := &memTransport{id: 1}
	tr := in.Wrap(under)
	if err := tr.Send(2, []byte("heartbeat")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(2, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if under.count() != 1 {
		t.Errorf("delivered %d, want 1 (filtered class dropped, other passed)", under.count())
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7, loss=0.25, dup=0.1, reorder=0.05, spike=50ms-150ms@0.3, part=3@0s+200ms, crash=2@10ms+80ms, crash=1@5ms")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Default.Drop != 0.25 || cfg.Default.Duplicate != 0.1 || cfg.Default.Reorder != 0.05 {
		t.Errorf("probabilities wrong: %+v", cfg.Default)
	}
	if cfg.Default.Spike != 0.3 || cfg.Default.SpikeMin != 50*time.Millisecond || cfg.Default.SpikeMax != 150*time.Millisecond {
		t.Errorf("spike wrong: %+v", cfg.Default)
	}
	if len(cfg.Partitions) != 1 || cfg.Partitions[0].End != 200*time.Millisecond || !cfg.Partitions[0].Group.Has(3) {
		t.Errorf("partition wrong: %+v", cfg.Partitions)
	}
	if len(cfg.Crashes) != 2 || cfg.Crashes[0].For != 80*time.Millisecond || cfg.Crashes[1].For != 0 {
		t.Errorf("crashes wrong: %+v", cfg.Crashes)
	}

	for _, bad := range []string{"loss=2", "bogus=1", "spike=abc", "part=3", "part=0@1s+1s", "crash=1@-5ms", "loss"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if _, err := ParseSpec("  "); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

func TestScheduleIsPure(t *testing.T) {
	cfg := Config{
		Partitions: []Partition{
			{Start: 20 * time.Millisecond, End: 50 * time.Millisecond, Group: model.Singleton(1)},
			{Start: 10 * time.Millisecond, End: 30 * time.Millisecond, Group: model.Singleton(2)},
		},
		Crashes: []NodeCrash{{Proc: 3, At: 15 * time.Millisecond}},
	}
	s1, s2 := Schedule(cfg), Schedule(cfg)
	if len(s1) != 5 {
		t.Fatalf("schedule has %d transitions, want 5 (crash without recovery adds one)", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("transition %d differs: %v vs %v", i, s1[i], s2[i])
		}
		if i > 0 && s1[i].At < s1[i-1].At {
			t.Errorf("schedule unsorted at %d", i)
		}
	}
}
