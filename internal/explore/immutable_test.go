package explore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// sentLog snapshots every message an automaton's Msgs returns, as its wire
// encoding at that moment.
type sentLog struct {
	mu   sync.Mutex
	msgs []rounds.Message
	encs [][]byte
}

func encodeMsg(m rounds.Message) ([]byte, error) {
	env, err := wire.EnvelopeFor(1, 2, 1, m)
	if err != nil {
		return nil, err
	}
	return wire.Encode(env)
}

func (l *sentLog) record(out []rounds.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range out {
		if m == nil {
			continue
		}
		enc, err := encodeMsg(m)
		if err != nil {
			panic(err) // every algorithm's message has a wire kind
		}
		l.msgs = append(l.msgs, m)
		l.encs = append(l.encs, enc)
	}
}

// changed returns how many snapshots no longer match their message.
func (l *sentLog) changed() (int, error) {
	bad := 0
	for i, m := range l.msgs {
		enc, err := encodeMsg(m)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(enc, l.encs[i]) {
			bad++
		}
	}
	return bad, nil
}

// loggedAlg wraps an algorithm so every Msgs result is snapshot in log.
type loggedAlg struct {
	rounds.Algorithm
	log *sentLog
}

func (a loggedAlg) New(cfg rounds.ProcConfig) rounds.Process {
	return &loggedProc{Process: a.Algorithm.New(cfg), log: a.log}
}

type loggedProc struct {
	rounds.Process
	log *sentLog
}

func (p *loggedProc) Msgs(round int) []rounds.Message {
	out := p.Process.Msgs(round)
	p.log.record(out)
	return out
}

func (p *loggedProc) CloneProcess() rounds.Process {
	return &loggedProc{Process: p.Process.(rounds.Cloner).CloneProcess(), log: p.log}
}

// TestSentMessagesStayImmutable: a message is immutable once Msgs returned
// it (rounds.Process). Automata share a sent W or vote vector with their own
// state, with every destination and with their clones, so a Trans that
// wrote storage a message shares would rewrite messages already sent —
// other processes' received copies, other branches' pasts. Every
// algorithm of both models and both NBAC variants runs under random crash
// adversaries and through the parallel explorer, and every message must
// still encode as it did when it was sent.
func TestSentMessagesStayImmutable(t *testing.T) {
	initial := []model.Value{3, 0, 2, 1}
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		algs := append(consensus.ForModel(kind), nbac.ForRS(), nbac.ForRWS())
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%v/%s", kind, alg.Name()), func(t *testing.T) {
				log := &sentLog{}
				logged := loggedAlg{Algorithm: alg, log: log}
				for seed := int64(1); seed <= 20; seed++ {
					adv := rounds.NewRandomAdversary(seed, 0.5, 0.5)
					if _, err := rounds.RunAlgorithm(kind, logged, initial, 1, adv); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				if _, err := Runs(kind, logged, initial, 1, Options{Workers: 2}, nil); err != nil {
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
