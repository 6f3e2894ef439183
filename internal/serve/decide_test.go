package serve

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// TestCASAnswersBeforeHalt: the decision, not the halt, is the commit point.
// Every link holds every packet for a constant 60 ms, so a round is long
// enough to look inside: the first CAS is answered at its instance's round-1
// decision with the instance still in flight, and a second CAS on the same
// key opens its own instance while the first one's relaying tail is running.
func TestCASAnswersBeforeHalt(t *testing.T) {
	const hold = 60 * time.Millisecond
	srv, client := newTestServer(t, func(c *Config) {
		c.Faults = &faults.Config{
			Default: faults.LinkFaults{Spike: 1, SpikeMin: hold, SpikeMax: hold},
			Metrics: obs.NewRegistry(),
		}
		c.SuspectTimeout = 2 * time.Second // heartbeats are held too
	})
	ctx := context.Background()
	var clock int64
	var records []OpRecord
	cas := func(old *int64, val int64) *CASResponse {
		rec := OpRecord{Kind: OpCAS, Key: "k", Old: old, New: val}
		clock++
		rec.Start = clock
		resp, err := client.CAS(ctx, "k", old, val)
		if err != nil || !resp.OK {
			t.Errorf("CAS(%v -> %d) = %+v, %v", ptr64(old), val, resp, err)
			return &CASResponse{}
		}
		clock++
		rec.End, rec.OK, rec.Version, rec.Value = clock, true, resp.Version, resp.Value
		records = append(records, rec)
		return resp
	}

	first := cas(nil, 1)
	if st := srv.Engine().Stats(); st.InFlight != 1 || st.Completed != 0 {
		t.Fatalf("after the first answer: in flight %d, completed %d — want the instance still running its tail", st.InFlight, st.Completed)
	}
	if first.DecideRound != 1 {
		t.Errorf("first CAS decide_round = %d, want 1 (C_OptFloodSetWS on a unanimous proposal)", first.DecideRound)
	}

	// The second CAS runs beside the poll below: the moment its instance is
	// open, the first one must not have halted yet.
	old := int64(1)
	secondDone := make(chan *CASResponse, 1)
	go func() { secondDone <- cas(&old, 2) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Engine().Stats()
		if st.Opened == 2 {
			if st.Completed != 0 {
				t.Errorf("second instance opened only after the first halted (completed %d)", st.Completed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second instance never opened: %+v", st)
		}
		time.Sleep(200 * time.Microsecond)
	}
	second := <-secondDone
	if second.Version != 2 || second.Instance == first.Instance {
		t.Fatalf("second CAS = %+v, want version 2 from its own instance (first was %d)", second, first.Instance)
	}

	st := quiesce(t, srv)
	chain, err := client.History(ctx, "k")
	if err != nil || len(chain) != 2 || chain[0].Value != 1 || chain[1].Value != 2 {
		t.Fatalf("chain = %+v, %v; want [1 2]", chain, err)
	}
	for _, ver := range chain {
		if ver.DecideRound != 1 {
			t.Errorf("version %d: decide_round %d, want 1", ver.Version, ver.DecideRound)
		}
		// The halted outcome, read back through the instance endpoint: every
		// node decided what the chain holds, one round before the halt.
		is, err := client.Instance(ctx, ver.Instance, false)
		if err != nil || !is.Done || is.Value == nil || *is.Value != int64(ver.Value) ||
			is.DecideRound != 1 || is.HaltRound != 2 {
			t.Errorf("instance %d = %+v, %v; want %d decided in round 1, halted after round 2", ver.Instance, is, err, int64(ver.Value))
		}
	}
	if err := CheckLinearizable(map[string][]KVVersion{"k": chain}, records); err != nil {
		t.Errorf("not linearizable: %v", err)
	}
	if st.Conform == nil || !st.Conform.Clean || st.Conform.Checked != 2 || st.Engine.AgreementReached != 2 {
		t.Errorf("after the tails: conform %+v, engine %+v", st.Conform, st.Engine)
	}
}

// TestUndecidedInstanceReleasesFlight: with every round frame lost (the
// heartbeats still flow, so nobody is suspected and each wait runs into
// WaitBound) every node halts in round 1, undecided. The decision callback
// never fires; the halt — a halt, not a crash — releases the flight with
// errUndecided, and the key is writable again once the mesh delivers.
func TestUndecidedInstanceReleasesFlight(t *testing.T) {
	var lossy atomic.Bool
	lossy.Store(true)
	srv, client := newTestServer(t, func(c *Config) {
		c.WaitBound = 30 * time.Millisecond
		c.Faults = &faults.Config{
			Default: faults.LinkFaults{Drop: 1},
			Filter: func(_, _ model.ProcessID, data []byte) bool {
				round := false
				_ = wire.SplitBatch(data, func(frame []byte) error {
					if env, err := wire.Decode(frame); err == nil && !env.Kind.Control() {
						round = true
					}
					return nil
				})
				return round && lossy.Load()
			},
			Metrics: obs.NewRegistry(),
		}
	})
	ctx := context.Background()
	_, err := client.CAS(ctx, "k", nil, 1)
	if err == nil || !strings.Contains(err.Error(), errUndecided.Error()) {
		t.Fatalf("CAS on a mesh that loses every round frame = %v, want %q", err, errUndecided)
	}
	st := quiesce(t, srv)
	if st.KV.InFlight != 0 || st.KV.Versions != 0 {
		t.Errorf("kv after the undecided instance = %+v, want the slot released and nothing committed", st.KV)
	}
	if st.Engine.AgreementNone != 1 || st.Engine.WaitTimeouts != 3 || !st.Engine.DetectorWasPerfect {
		t.Errorf("engine = %+v, want one undecided instance, its 3 nodes halted by WaitBound under a perfect detector", st.Engine)
	}
	if st.Conform == nil || !st.Conform.Clean || st.Conform.Undecided != 1 {
		t.Errorf("conform = %+v, want clean with one undecided", st.Conform)
	}

	lossy.Store(false)
	resp, err := client.CAS(ctx, "k", nil, 2)
	if err != nil || !resp.OK || resp.Version != 1 || resp.Value != 2 || resp.DecideRound != 1 {
		t.Fatalf("CAS after the mesh healed = %+v, %v; want version 1 = 2 decided in round 1", resp, err)
	}
}

// TestSettleChecksCommittedVersion: what instanceDone still does for a flight
// its first decision already committed. A halted outcome in which a node
// decided something else is one instance with one agreement violation (and,
// here, one validity violation: nobody proposed 6) — counted once, by the
// monitor's Note — and the committed version stays. A matching outcome, or
// an engine that tore down under the flight, changes nothing.
func TestSettleChecksCommittedVersion(t *testing.T) {
	done := func(srv *Server, key string, inst uint64, out runtime.InstanceOutcome) *kvFlight {
		fl := &kvFlight{key: key, val: 5, done: make(chan struct{})}
		srv.kv.keys[key] = &kvKey{inflight: fl}
		srv.insts.mu.Lock()
		srv.insts.recs[inst] = &instRecord{id: inst, proposals: vals(5, 5, 5), flight: fl}
		srv.insts.mu.Unlock()
		srv.kv.commit(fl, inst, 5, 1)
		srv.instanceDone(inst, out)
		return fl
	}
	srv, _ := newTestServer(t, nil)
	done(srv, "same", 1, runtime.InstanceOutcome{N: 3, Decided: []bool{true, false, true}, Decisions: vals(5, 0, 5)})
	done(srv, "torn", 2, runtime.InstanceOutcome{
		N: 3, Decided: make([]bool, 3), Decisions: vals(0, 0, 0), Err: runtime.ErrEngineClosed})
	if sum := srv.Monitor().Summary(); !sum.Clean || sum.Checked != 2 {
		t.Fatalf("matching outcomes: summary %+v, want clean over 2 checked", sum)
	}

	srv, _ = newTestServer(t, nil)
	fl := done(srv, "fork", 7, runtime.InstanceOutcome{N: 3, Decided: []bool{true, true, true}, Decisions: vals(5, 6, 5)})
	sum := srv.Monitor().Summary()
	if sum.Checked != 1 || sum.AgreementViolations != 1 || sum.ValidityViolations != 1 ||
		!strings.Contains(sum.FirstViolation, "instance 7: agreement violated") {
		t.Errorf("forked outcome: summary %+v, want 1 agreement and 1 validity violation over 1 checked", sum)
	}
	if head := srv.kv.Get("fork"); head == nil || head.Value != 5 || fl.err != nil {
		t.Errorf("the committed version moved: head %+v, flight err %v", head, fl.err)
	}
}

// TestDecideRoundPerAlgorithm: decide_round and halt_round as the instance
// endpoint reports them, for the three served algorithms on a unanimous and
// on a mixed proposal vector (n=3, t=1, failure-free).
func TestDecideRoundPerAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		alg              string
		unanimous, mixed int
	}{
		{"FloodSetWS", 2, 2},
		{"C_OptFloodSetWS", 1, 2},
		{"F_OptFloodSetWS", 2, 2},
	} {
		alg, _ := consensus.ByName(tc.alg)
		_, client := newTestServer(t, func(c *Config) { c.Algorithm = alg })
		ctx := context.Background()
		for name, want := range map[string]int{"unanimous": tc.unanimous, "mixed": tc.mixed} {
			values := []int64{4, 4, 4}
			if name == "mixed" {
				values = []int64{4, 2, 7}
			}
			id, err := client.ProposeValues(ctx, values)
			if err != nil {
				t.Fatal(err)
			}
			st, err := client.Instance(ctx, id, true)
			if err != nil || st.Agreement != "reached" || st.DecideRound != want || st.HaltRound != 2 {
				t.Errorf("%s %s: %+v, %v; want decide_round %d, halt_round 2", tc.alg, name, st, err, want)
			}
		}
	}
}
