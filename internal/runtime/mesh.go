package runtime

import (
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// demuxLoop decodes one node's inbound packets (splitting batches), feeds
// the shared detector and routes round messages to the owning worker.
func (er *engineRun) demuxLoop(wg *sync.WaitGroup, id model.ProcessID, tr Transport, stop <-chan struct{}) {
	defer wg.Done()
	fd := er.fds[id]
	// A packet's frames reach each owning worker in one push: a batch of 32
	// frames takes the mailbox lock once per worker, not 32 times.
	routed := make([][]engEvent, len(er.workers))
	for {
		select {
		case <-stop:
			return
		case pkt, ok := <-tr.Recv():
			if !ok {
				return
			}
			_ = wire.SplitBatch(pkt.Data, func(frame []byte) error {
				env, err := er.codec.Decode(frame)
				if err != nil {
					return nil // corrupt frame: drop, keep the batch
				}
				if fd != nil {
					fd.Observe(env)
				}
				if env.Kind.Control() {
					er.metrics.heartbeats.Inc()
					return nil
				}
				if env.Instance >= er.opened.Load() ||
					env.From < 1 || int(env.From) > er.n {
					er.unknown.Inc()
					er.unknownCount.Add(1)
					return nil
				}
				w := int(env.Instance % uint64(len(er.workers)))
				routed[w] = append(routed[w], engEvent{node: id, env: env})
				return nil
			})
			for w, evs := range routed {
				if len(evs) == 0 {
					continue
				}
				er.workers[w].mb.pushAll(evs)
				clear(evs) // drop the payload references
				routed[w] = evs[:0]
			}
		}
	}
}

// sendRound transmits st's round-r messages (msgs, the automaton's Msgs(r))
// through the owning node's batcher, tagged with the instance id, to the
// first reach destinations (all n−1 unless the node is crashing).
func (w *engWorker) sendRound(st *instState, r, reach int, msgs []rounds.Message) error {
	if msgs != nil {
		st.selfMsg = msgs[st.id]
	} else {
		st.selfMsg = nil
	}
	// The send event precedes the first transmission: a causal tracer on
	// the sink must record this broadcast's Lamport clock before any of its
	// packets can land at a receiver (whose arrival event joins with it).
	// On a transport error below the whole engine aborts, so the optimistic
	// emission never misleads a consumer.
	if sink := st.slab.events; sink != nil && reach > 0 && w.run.n > 1 {
		var dests []int
		for j := 1; j <= w.run.n && len(dests) < reach; j++ {
			if model.ProcessID(j) != st.id {
				dests = append(dests, j)
			}
		}
		sink.Emit(obs.Event{Type: obs.EventSend, Round: r, From: int(st.id), To: dests})
	}
	for j, left := 1, reach; j <= w.run.n && left > 0; j++ {
		dest := model.ProcessID(j)
		if dest == st.id {
			continue
		}
		left--
		var payload rounds.Message
		if msgs != nil {
			payload = msgs[dest]
		}
		env, err := wire.EnvelopeFor(st.id, dest, r, payload)
		if err != nil {
			return err
		}
		env.Instance = st.slab.inst
		data, err := w.run.codec.Encode(env)
		if err != nil {
			return err
		}
		if err := w.run.batchers[st.id].Send(dest, data); err != nil {
			return err
		}
	}
	return nil
}
