package rounds_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/conform"
	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// TestObsCountersMatchRunTotals is the instrumentation acceptance property:
// for seeded RandomAdversary runs in both models, the engine's counters
// exactly equal the totals recomputed from the run record, the sink's stream
// equals EventsFromRun, and the JSONL file projects (conform.Project) to a
// schedule that replays to the run's own fingerprint.
func TestObsCountersMatchRunTotals(t *testing.T) {
	cases := []struct {
		kind rounds.ModelKind
		alg  rounds.Algorithm
	}{
		{rounds.RS, consensus.FloodSet{}},
		{rounds.RWS, consensus.FloodSetWS{}},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 50; seed++ {
			name := fmt.Sprintf("%s/seed=%d", tc.kind, seed)
			adv := rounds.NewRandomAdversary(seed, 0.3, 0.4)
			adv.DropAll = seed%3 == 0
			initial := []model.Value{model.Value(seed % 5), 7, 0, model.Value(seed % 2)}

			reg := obs.NewRegistry()
			var collected obs.Collector
			var jsonl bytes.Buffer
			em := obs.NewEmitter(&jsonl)

			eng, err := rounds.NewEngine(tc.kind, tc.alg, initial, 2,
				rounds.WithMetrics(reg), rounds.WithEventSink(obs.MultiSink(&collected, em)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run, err := eng.Execute(adv, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := em.Err(); err != nil {
				t.Fatalf("%s: emitter: %v", name, err)
			}

			tot := run.Totals()
			if tot.Sent != tot.Delivered+tot.Dropped+tot.Pending {
				t.Errorf("%s: tally invariant broken: %+v", name, tot)
			}
			if tot.Delivered != run.TotalMessages() {
				t.Errorf("%s: delivered=%d but TotalMessages=%d", name, tot.Delivered, run.TotalMessages())
			}
			if tc.kind == rounds.RS && tot.Pending != 0 {
				t.Errorf("%s: RS run has %d pending messages", name, tot.Pending)
			}

			snap := reg.Snapshot()
			counter := func(metric string) int64 {
				return snap.Counter(obs.Label(metric, "model", tc.kind.String()))
			}
			for metric, want := range map[string]int{
				rounds.MetricRuns:              1,
				rounds.MetricRounds:            tot.Rounds,
				rounds.MetricMessagesSent:      tot.Sent,
				rounds.MetricMessagesDelivered: tot.Delivered,
				rounds.MetricMessagesDropped:   tot.Dropped,
				rounds.MetricMessagesPending:   tot.Pending,
				rounds.MetricCrashes:           tot.Crashes,
				rounds.MetricDecisions:         tot.Decisions,
			} {
				if got := counter(metric); got != int64(want) {
					t.Errorf("%s: %s = %d, want %d", name, metric, got, want)
				}
			}

			// The live stream must equal the record's replayed stream…
			replayed := rounds.EventsFromRun(run)
			if !reflect.DeepEqual(collected.Events(), replayed) {
				t.Errorf("%s: live events differ from EventsFromRun:\n live: %+v\nreplay: %+v",
					name, collected.Events(), replayed)
			}
			// …and the JSONL file must replay to the very same run.
			back, err := obs.ReadEvents(&jsonl)
			if err != nil {
				t.Fatalf("%s: ReadEvents: %v", name, err)
			}
			meta := conform.Meta{Alg: tc.alg, Kind: tc.kind, T: 2, Initial: initial}
			rep, err := conform.CheckEvents(meta, back, conform.Options{})
			if err != nil {
				t.Fatalf("%s: CheckEvents: %v", name, err)
			}
			if !rep.OK() || rep.Fingerprint != conform.Fingerprint(run) {
				t.Errorf("%s: JSONL stream does not replay to its run:\n%s\n replay %s\n engine %s",
					name, rep, rep.Fingerprint, conform.Fingerprint(run))
			}
		}
	}
}

// TestObsDefaultRegistryCounts checks that an engine built without options
// counts into the process-wide obs.Default registry.
func TestObsDefaultRegistryCounts(t *testing.T) {
	metric := obs.Label(rounds.MetricRuns, "model", "RS")
	before := obs.Default.Counter(metric).Value()
	_, err := rounds.RunAlgorithm(rounds.RS, consensus.FloodSet{},
		[]model.Value{1, 2, 3}, 1, rounds.NewRandomAdversary(1, 0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if after := obs.Default.Counter(metric).Value(); after != before+1 {
		t.Errorf("default registry runs counter went %d → %d, want +1", before, after)
	}
}

// TestObsCloneSharesMetricsDropsSink checks the explorer-facing contract:
// forked engines keep counting rounds into the same registry but never
// interleave events into the parent's stream.
func TestObsCloneSharesMetricsDropsSink(t *testing.T) {
	reg := obs.NewRegistry()
	var collected obs.Collector
	eng, err := rounds.NewEngine(rounds.RS, consensus.FloodSet{},
		[]model.Value{3, 1, 4}, 1, rounds.WithMetrics(reg), rounds.WithEventSink(&collected))
	if err != nil {
		t.Fatal(err)
	}
	clone, err := eng.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Execute(rounds.NewRandomAdversary(2, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	metric := obs.Label(rounds.MetricRounds, "model", "RS")
	if got := reg.Counter(metric).Value(); got == 0 {
		t.Error("clone did not count rounds into the shared registry")
	}
	// Only the parent's run_start is in the stream: the clone emitted nothing.
	events := collected.Events()
	if len(events) != 1 || events[0].Type != obs.EventRunStart {
		t.Errorf("clone leaked events into the parent sink: %+v", events)
	}
}
