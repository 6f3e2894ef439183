package conform_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/conform"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// byteFeed dispenses fuzz input bytes one at a time, yielding zeros once
// the input is exhausted so every consumer stays deterministic.
type byteFeed struct {
	data []byte
	pos  int
}

func (b *byteFeed) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

// byteAdversary is rounds.RandomAdversary with the PRNG replaced by the
// fuzzer's input bytes: every plan it emits is legal by construction
// (obligations honored first, crash budget respected, reach and drop sets
// drawn from the round's actual message pattern), so the engine must accept
// it and the resulting run must be model-admissible.
type byteAdversary struct {
	feed *byteFeed
}

func (a *byteAdversary) pick(s model.ProcSet) model.ProcessID {
	m := s.Members()
	return m[int(a.feed.next())%len(m)]
}

func (a *byteAdversary) subset(s model.ProcSet) model.ProcSet {
	var out model.ProcSet
	s.ForEach(func(p model.ProcessID) bool {
		if a.feed.next()&1 == 1 {
			out = out.Add(p)
		}
		return true
	})
	return out
}

func (a *byteAdversary) Plan(v *rounds.View) rounds.Plan {
	p := rounds.Plan{}
	crashing := v.Obligated
	budget := v.Budget() - crashing.Count()
	candidates := v.Alive.Minus(crashing)
	for budget > 0 && !candidates.Empty() && a.feed.next()%4 == 0 {
		q := a.pick(candidates)
		crashing = crashing.Add(q)
		candidates = candidates.Remove(q)
		budget--
	}
	if !crashing.Empty() {
		p.Crashes = make(map[model.ProcessID]model.ProcSet, crashing.Count())
		crashing.ForEach(func(q model.ProcessID) bool {
			p.Crashes[q] = a.subset(v.Sending[q].Remove(q))
			return true
		})
	}
	if v.Model == rounds.RWS {
		droppers := 0
		candidates = v.Alive.Minus(crashing)
		for budget-droppers > 0 && !candidates.Empty() && a.feed.next()%4 == 0 {
			q := a.pick(candidates)
			candidates = candidates.Remove(q)
			drop := a.subset(v.Sending[q].Remove(q))
			if drop.Empty() {
				continue
			}
			if p.Drops == nil {
				p.Drops = make(map[model.ProcessID]model.ProcSet)
			}
			p.Drops[q] = drop
			droppers++
		}
	}
	return p
}

// fuzzCoordinate decodes the fuzz input's leading bytes into an
// (algorithm, model, n, t, initial values) coordinate within the harness's
// supported envelope.
func fuzzCoordinate(t *testing.T, feed *byteFeed) (rounds.Algorithm, rounds.ModelKind, int, int, []model.Value) {
	t.Helper()
	names := []string{"FloodSet", "FloodSetWS", "A1"}
	name := names[int(feed.next())%len(names)]
	alg := algByName(t, name)
	kind := rounds.RS
	if feed.next()&1 == 1 {
		kind = rounds.RWS
	}
	n := 2 + int(feed.next())%3 // 2..4
	tt := 1 + int(feed.next())%2
	if tt >= n {
		tt = n - 1
	}
	if name == "A1" {
		tt = 1 // A1 is specified for t=1 only
	}
	initial := make([]model.Value, n)
	for i := range initial {
		initial[i] = model.Value(int(feed.next()) % 4)
	}
	return alg, kind, n, tt, initial
}

// FuzzAdversarySchedule drives byte-derived legal adversary schedules
// through the round engines at byte-chosen coordinates and holds the
// harness's invariants: the engine accepts every legal plan, execution is
// deterministic (byte-identical fingerprints on re-execution), every run is
// model-admissible and value-origin-clean, its event stream projects and
// replays to its own fingerprint, and the algorithm/model pairs the paper
// proves correct reach uniform consensus under every schedule.
func FuzzAdversarySchedule(f *testing.F) {
	f.Add([]byte{})                                                  // failure-free FloodSet/RS n=2
	f.Add([]byte{0, 0, 1, 0, 1, 2, 3, 0, 0, 0, 0})                   // FloodSet/RS n=3
	f.Add([]byte{1, 1, 2, 1, 3, 1, 0, 2, 0, 4, 0, 255, 3})           // FloodSetWS/RWS n=4 t=2
	f.Add([]byte{2, 0, 1, 0, 2, 1, 0, 0, 8, 1})                      // A1/RS n=3
	f.Add([]byte{1, 1, 1, 1, 0, 3, 0, 0, 0, 12, 7, 0, 0, 1, 0, 255}) // RWS drops
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		alg, kind, n, tt, initial := fuzzCoordinate(t, feed)

		execute := func() *rounds.Run {
			eng, err := rounds.NewEngine(kind, alg, initial, tt, rounds.WithRoundLimit(tt+4))
			if err != nil {
				t.Fatalf("NewEngine(%s/%s n=%d t=%d): %v", alg.Name(), kind, n, tt, err)
			}
			run, err := eng.Execute(&byteAdversary{feed: &byteFeed{data: data, pos: feed.pos}}, 0)
			if err != nil {
				t.Fatalf("engine rejected a legal-by-construction schedule (%s/%s n=%d t=%d): %v",
					alg.Name(), kind, n, tt, err)
			}
			return run
		}
		run := execute()
		if fp, fp2 := conform.Fingerprint(run), conform.Fingerprint(execute()); fp != fp2 {
			t.Fatalf("re-execution diverged:\n%s\nvs\n%s", fp, fp2)
		}
		if viol := rounds.Admissible(run); len(viol) > 0 {
			t.Fatalf("inadmissible run from a legal schedule: %v\nrun: %v", viol[0].Error(), run)
		}
		if res := check.ValueOrigin(run); !res.OK {
			t.Fatalf("value origin violated: %s", res.Detail)
		}
		if run.Truncated {
			t.Fatalf("run truncated at round limit %d: the fuzz adversary's budget should bound every run", tt+4)
		}
		meta := conform.Meta{Alg: alg, Kind: kind, T: tt, Initial: initial}
		rep, err := conform.CheckEvents(meta, rounds.EventsFromRun(run), conform.Options{})
		if err != nil {
			t.Fatalf("the engine's own event stream does not project: %v\nrun: %v", err, run)
		}
		if !rep.OK() || rep.Fingerprint != conform.Fingerprint(run) {
			t.Fatalf("event stream does not replay to its run:\n%s\n replay %s\n engine %s",
				rep, rep.Fingerprint, conform.Fingerprint(run))
		}
		correctPair := (alg.Name() == "FloodSet" && kind == rounds.RS) ||
			alg.Name() == "FloodSetWS" ||
			(alg.Name() == "A1" && kind == rounds.RS)
		if correctPair {
			if ok, bad := check.AllOK(check.Consensus(run)); !ok {
				t.Fatalf("%s/%s n=%d t=%d: %s\nrun: %v", alg.Name(), kind, n, tt, bad, run)
			}
		}
	})
}

// countingTransport tallies deliveries behind the fault injector.
type countingTransport struct {
	id        model.ProcessID
	mu        sync.Mutex
	delivered int
}

func (c *countingTransport) LocalID() model.ProcessID { return c.id }
func (c *countingTransport) Send(model.ProcessID, []byte) error {
	c.mu.Lock()
	c.delivered++
	c.mu.Unlock()
	return nil
}
func (c *countingTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}
func (c *countingTransport) Recv() <-chan wire.Packet { return nil }
func (c *countingTransport) Close() error             { return nil }

// FuzzFaultSpec fuzzes the fault-injection spec grammar and the injector
// built from whatever parses: parsing is deterministic, parsed
// probabilities and spike ranges respect their documented bounds, the
// transition schedule is a sorted pure function of the config, and — for
// specs without blackholes or long spikes — two injectors with the same
// seed make byte-identical per-message decisions whose drop/duplicate
// verdicts add up to the observed delivery count.
func FuzzFaultSpec(f *testing.F) {
	f.Add("seed=7,dup=0.25,reorder=0.25,spike=1ms-2ms@0.2")
	f.Add("loss=0.3")
	f.Add("seed=42,loss=0.5,dup=1,reorder=1,spike=500us@1")
	f.Add("part=3.4@50ms+200ms,crash=2@10ms+80ms")
	f.Add("crash=1@5ms")
	f.Add("spike=0ms")
	f.Add("loss=2")
	f.Add("bogus")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := faults.ParseSpec(spec)
		cfg2, err2 := faults.ParseSpec(spec)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("parse nondeterminism: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("parse nondeterminism:\n%+v\nvs\n%+v", cfg, cfg2)
		}
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"loss", cfg.Default.Drop}, {"dup", cfg.Default.Duplicate},
			{"reorder", cfg.Default.Reorder}, {"spike probability", cfg.Default.Spike},
		} {
			if p.v < 0 || p.v > 1 {
				t.Fatalf("%s = %v escaped [0,1]", p.name, p.v)
			}
		}
		if cfg.Default.SpikeMin < 0 || cfg.Default.SpikeMax < cfg.Default.SpikeMin {
			t.Fatalf("spike range %v-%v inverted", cfg.Default.SpikeMin, cfg.Default.SpikeMax)
		}

		sched := faults.Schedule(cfg)
		if !reflect.DeepEqual(sched, faults.Schedule(cfg)) {
			t.Fatal("Schedule is not a pure function of the config")
		}
		for i := 1; i < len(sched); i++ {
			if sched[i].At < sched[i-1].At {
				t.Fatalf("schedule out of order: %v after %v", sched[i], sched[i-1])
			}
		}
		wantTransitions := 2 * len(cfg.Partitions)
		for _, c := range cfg.Crashes {
			wantTransitions++
			if c.For > 0 {
				wantTransitions++
			}
		}
		if len(sched) != wantTransitions {
			t.Fatalf("schedule has %d transitions, want %d (partitions pair, recoveries only with +dur)",
				len(sched), wantTransitions)
		}

		// Injector stage: needs a quiet topology and bounded delays to
		// observe the full delivery stream quickly.
		if len(cfg.Partitions) > 0 || len(cfg.Crashes) > 0 || cfg.Default.SpikeMax > 10*time.Millisecond {
			return
		}
		const msgs = 12
		links := []model.ProcessID{2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3}
		drive := func() ([]faults.Decision, int) {
			c := cfg
			c.RecordDecisions = true
			c.Metrics = obs.NewRegistry()
			in := faults.NewInjector(c)
			sink := &countingTransport{id: 1}
			tr := in.Wrap(sink)
			for i := 0; i < msgs; i++ {
				if err := tr.Send(links[i], []byte{byte(i)}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			decs := in.Decisions()
			want := 0
			for _, d := range decs {
				if d.Drop {
					continue
				}
				want++
				if d.Duplicate {
					want++
				}
			}
			if len(decs) > 0 {
				// Held-back copies (spikes, reorders) land asynchronously;
				// poll up to the worst-case delay plus margin.
				deadline := time.Now().Add(cfg.Default.SpikeMax + 50*time.Millisecond)
				for sink.count() < want && time.Now().Before(deadline) {
					time.Sleep(500 * time.Microsecond)
				}
			}
			if err := in.Close(); err != nil {
				t.Fatalf("closing injector: %v", err)
			}
			got := sink.count()
			if len(decs) > 0 && got != want {
				t.Fatalf("delivered %d messages, want %d (from %d decisions over %d sends)",
					got, want, len(decs), msgs)
			}
			if len(decs) == 0 && got != msgs {
				// No active faults on the link: everything passes through.
				t.Fatalf("fault-free link delivered %d of %d sends", got, msgs)
			}
			return decs, got
		}
		decs1, got1 := drive()
		decs2, got2 := drive()
		if got1 != got2 || !reflect.DeepEqual(decs1, decs2) {
			t.Fatalf("same seed, different behaviour: %d/%d delivered\n%s\nvs\n%s",
				got1, got2, faults.RenderDecisions(decs1), faults.RenderDecisions(decs2))
		}
	})
}
