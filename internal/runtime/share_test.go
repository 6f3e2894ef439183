package runtime

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// sendLog wraps an algorithm and keeps, by (node, round), the message each
// automaton sent itself and the vector its Trans was handed, plus every
// message Msgs returned with its wire encoding at that moment.
type sendLog struct {
	rounds.Algorithm
	mu   sync.Mutex
	self map[[2]int]rounds.Message
	got  map[[2]int][]rounds.Message
	msgs []rounds.Message
	encs [][]byte
}

func newSendLog(alg rounds.Algorithm) *sendLog {
	return &sendLog{Algorithm: alg, self: map[[2]int]rounds.Message{}, got: map[[2]int][]rounds.Message{}}
}

func (l *sendLog) New(cfg rounds.ProcConfig) rounds.Process {
	return &sendLogProc{Process: l.Algorithm.New(cfg), log: l, id: int(cfg.ID)}
}

// encodeSent is m's frame as a fixed envelope would carry it.
func encodeSent(m rounds.Message) ([]byte, error) {
	env, err := wire.EnvelopeFor(1, 2, 1, m)
	if err != nil {
		return nil, err
	}
	return wire.Encode(env)
}

// changed returns how many logged messages no longer encode as they did
// when they were sent.
func (l *sendLog) changed() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bad := 0
	for i, m := range l.msgs {
		enc, err := encodeSent(m)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(enc, l.encs[i]) {
			bad++
		}
	}
	return bad, nil
}

type sendLogProc struct {
	rounds.Process
	log *sendLog
	id  int
}

func (p *sendLogProc) Msgs(r int) []rounds.Message {
	out := p.Process.Msgs(r)
	if out == nil {
		return nil
	}
	p.log.mu.Lock()
	defer p.log.mu.Unlock()
	p.log.self[[2]int{p.id, r}] = out[p.id]
	for _, m := range out {
		if m == nil {
			continue
		}
		enc, err := encodeSent(m)
		if err != nil {
			panic(err) // every algorithm's message has a wire kind
		}
		p.log.msgs = append(p.log.msgs, m)
		p.log.encs = append(p.log.encs, enc)
	}
	return out
}

func (p *sendLogProc) Trans(r int, received []rounds.Message) {
	p.log.mu.Lock()
	p.log.got[[2]int{p.id, r}] = append([]rounds.Message(nil), received...)
	p.log.mu.Unlock()
	p.Process.Trans(r, received)
}

// TestEngineFilesSendersMessage: every automaton of an instance lives on one
// worker, so a receiver whose frame carries exactly the bytes its sender's
// message encodes to is handed that message itself — the sender's W, same
// storage — and decodes nothing. (TestEngineDecodesFramesUnlikeTheSent is
// the other side: frames that differ from what the senders sent are
// decoded.)
func TestEngineFilesSendersMessage(t *testing.T) {
	const n, tt = 4, 1
	log := newSendLog(consensus.FloodSetWS{})
	_, _, err := runInstances(log, EngineConfig{
		N: n, T: tt, Groups: 1,
		HeartbeatPeriod: 5 * time.Millisecond, SuspectTimeout: 2 * time.Second,
	}, 1, func(_ int, id model.ProcessID) model.Value { return model.Value(10 * id) })
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= tt+1; r++ {
		for to := 1; to <= n; to++ {
			got := log.got[[2]int{to, r}]
			if len(got) != n+1 {
				t.Fatalf("node %d round %d: Trans never ran", to, r)
			}
			for from := 1; from <= n; from++ {
				if wStorage(t, got[from]) != wStorage(t, log.self[[2]int{from, r}]) {
					t.Errorf("round %d: node %d's Trans got a copy of node %d's W, not the W it sent", r, to, from)
				}
			}
		}
	}
}

// wStorage is the backing array of the W set m carries.
func wStorage(t *testing.T, m rounds.Message) uintptr {
	t.Helper()
	w, ok := m.(consensus.WMsg)
	if !ok {
		t.Fatalf("message %v, want a WMsg", m)
	}
	return reflect.ValueOf(w.W).Field(0).Pointer()
}

// TestEngineSharedMessagesStayAsSent: live, a sent message is shared by its
// sender's state, its self-delivery and every peer that files it, so it
// must never change once Msgs returned it (rounds.Process). Every algorithm
// of both models and both NBAC variants runs a few instances on one engine,
// the last with a node crashing mid-broadcast, and every message must still
// encode as it did when it was sent.
func TestEngineSharedMessagesStayAsSent(t *testing.T) {
	const n, tt = 4, 1
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		algs := append(consensus.ForModel(kind), nbac.ForRS(), nbac.ForRWS())
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%v/%s", kind, alg.Name()), func(t *testing.T) {
				log := newSendLog(alg)
				e, err := StartEngine(log, EngineConfig{
					Kind: kind, N: n, T: tt,
					HeartbeatPeriod: 2 * time.Millisecond, SuspectTimeout: 100 * time.Millisecond,
					RoundDuration: 10 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Node 2 proposes the least value (and votes No). In the last
				// instance only node 1 hears it at round 1, so the others learn
				// it at round 2: a set grown in place would shift under the
				// message that shares it.
				initial := func(id model.ProcessID) model.Value {
					if id == 2 {
						return 0
					}
					return model.Value(10 * id)
				}
				var handles []*Instance
				for k := 0; k < 4; k++ {
					var opts OpenOptions
					if k == 3 {
						opts.Crashes = map[model.ProcessID]CrashPlan{2: {Round: 1, Reach: 1}}
					}
					h, err := e.OpenWith(initial, opts)
					if err != nil {
						t.Fatal(err)
					}
					handles = append(handles, h)
				}
				for _, h := range handles {
					<-h.Done()
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				bad, err := log.changed()
				if err != nil {
					t.Fatal(err)
				}
				if len(log.msgs) == 0 || bad != 0 {
					t.Errorf("%d of %d sent messages changed after Msgs returned them", bad, len(log.msgs))
				}
			})
		}
	}
}

// sendWatch is an event sink that closes sent once want send events of
// round have been emitted.
type sendWatch struct {
	round, want int
	sent        chan struct{}
}

func (s *sendWatch) Emit(ev obs.Event) {
	if ev.Type == obs.EventSend && ev.Round == s.round {
		if s.want--; s.want == 0 {
			close(s.sent)
		}
	}
}

// handRun runs one FloodSetWS instance, proposals 10·id, on n = 4 nodes and
// one more endpoint, the test's hand. The mesh drops every round frame to
// node 1 from the senders in sets, so node 1 waits in round 1 while the
// other nodes send round 2 and wait for it. Then — every sender's message
// on record — the hand sends node 1, for rounds 1 and 2, a frame from each
// of those senders carrying its set. Node 1 must decide 1, the least value
// of the hand's sets.
func handRun(t *testing.T, sets map[model.ProcessID]model.ValueSet) *sendLog {
	t.Helper()
	const n = 4
	nw := NewChanNetwork(n+1, ChanConfig{Metrics: obs.NewRegistry(), Delay: func(from, to model.ProcessID, data []byte) time.Duration {
		if _, hand := sets[from]; to == 1 && hand && !wire.PeekControl(data) {
			return -1
		}
		return 100 * time.Microsecond
	}})
	log := newSendLog(consensus.FloodSetWS{})
	e, err := StartEngine(log, EngineConfig{
		N: n, T: 1, Groups: 1,
		Network:         nw,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	watch := &sendWatch{round: 2, want: n - 1, sent: make(chan struct{})}
	h, err := e.OpenWith(func(id model.ProcessID) model.Value { return model.Value(10 * id) }, OpenOptions{Events: watch})
	if err != nil {
		t.Fatal(err)
	}
	<-watch.sent
	var batch []byte
	for r := 1; r <= 2; r++ {
		for from := model.ProcessID(2); from <= n; from++ {
			set, ok := sets[from]
			if !ok {
				continue
			}
			frame, err := wire.Encode(wire.Envelope{From: from, To: 1, Round: r, Kind: wire.KindW,
				Payload: consensus.WMsg{W: set}})
			if err != nil {
				t.Fatal(err)
			}
			batch = wire.AppendToBatch(batch, frame)
		}
	}
	if err := nw.Endpoint(n+1).Send(1, batch); err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if out, _ := h.Outcome(); !out.Decided[0] || out.Decisions[0] != 1 {
		t.Fatalf("node 1 decided (%d,%v), want 1: min of the hand's sets", int64(out.Decisions[0]), out.Decided[0])
	}
	for r := 1; r <= 2; r++ {
		got := log.got[[2]int{1, r}]
		for from, want := range sets {
			if m, ok := got[from].(consensus.WMsg); !ok || !m.W.Equal(want) {
				t.Errorf("round %d: node 1's Trans saw %v from node %d, want the hand's W=%v", r, got[from], from, want)
			}
		}
	}
	return log
}

// TestEngineDecodesFramesUnlikeTheSent: a frame is filed as its sender's
// recorded message only when the bytes match. Node 1 gets only the hand's
// frames from nodes 2..4, each unlike what that node sent, and must see
// and decide on the hand's sets — also when two senders' sets are
// byte-equal, where each still reaches Trans as that sender's W.
func TestEngineDecodesFramesUnlikeTheSent(t *testing.T) {
	for name, sets := range map[string]map[model.ProcessID]model.ValueSet{
		"distinct":   {2: model.NewValueSet(1, 20), 3: model.NewValueSet(2, 30), 4: model.NewValueSet(3, 40)},
		"byte-equal": {2: model.NewValueSet(1, 2), 3: model.NewValueSet(1, 2), 4: model.NewValueSet(3)},
	} {
		t.Run(name, func(t *testing.T) { handRun(t, sets) })
	}
}

// TestEngineMixedRowFilesAndDecodes: one row holds both kinds of frame.
// Node 1 gets node 2's real frames, filed from the record — Trans sees node
// 2's own W, same storage — and the hand's frames for nodes 3 and 4, which
// are decoded; node 1 decides the least value of all.
func TestEngineMixedRowFilesAndDecodes(t *testing.T) {
	log := handRun(t, map[model.ProcessID]model.ValueSet{3: model.NewValueSet(1, 30), 4: model.NewValueSet(3, 40)})
	for r := 1; r <= 2; r++ {
		if got, sent := log.got[[2]int{1, r}][2], log.self[[2]int{2, r}]; wStorage(t, got) != wStorage(t, sent) {
			t.Errorf("round %d: node 1's Trans got %v from node 2, not the W node 2 sent", r, got)
		}
	}
}
