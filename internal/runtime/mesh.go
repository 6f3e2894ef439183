package runtime

import (
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// kindTally is one goroutine's private count of codec conversions per kind,
// folded into the shared netobs.WireStats in bulk: the demultiplexer once per
// packet, a worker once per sweep. A packet's frames are nearly all one kind,
// so a fold costs four atomic adds where counting per frame cost four per
// frame, on cache lines every node's goroutines share.
type kindTally [wire.MaxKind + 1]struct{ msgs, bytes int64 }

func (t *kindTally) add(k wire.Kind, bytes int) {
	t[k].msgs++
	t[k].bytes += int64(bytes)
}

// fold hands the tally to add (WireStats.AddEncoded or AddDecoded) and
// zeroes it.
func (t *kindTally) fold(add func(k wire.Kind, msgs, bytes int64)) {
	for k := range t {
		if t[k].msgs != 0 {
			add(wire.Kind(k), t[k].msgs, t[k].bytes)
			t[k].msgs, t[k].bytes = 0, 0
		}
	}
}

// demuxLoop decodes one node's inbound packets (splitting batches), feeds
// the shared detector and routes round messages to the owning worker.
func (er *engineRun) demuxLoop(wg *sync.WaitGroup, id model.ProcessID, tr Transport, stop <-chan struct{}) {
	defer wg.Done()
	fd := er.fds[id]
	// A packet's frames reach each owning worker in one push: a batch of 32
	// frames takes the mailbox lock once per worker, not 32 times.
	routed := make([][]engEvent, len(er.workers))
	var decoded kindTally
	for {
		select {
		case <-stop:
			return
		case pkt, ok := <-tr.Recv():
			if !ok {
				return
			}
			// Instance ids only grow and a frame is sent after its instance was
			// opened, so one read per packet bounds every id the packet carries.
			opened := er.opened.Load()
			// observed: senders whose round traffic in this packet the detector
			// has already seen (the Detector.Observe contract).
			var observed model.ProcSet
			_ = wire.SplitBatch(pkt.Data, func(frame []byte) error {
				env, err := wire.Decode(frame)
				if err != nil {
					return nil // corrupt frame: drop, keep the batch
				}
				decoded.add(env.Kind, len(frame))
				if env.Kind.Control() {
					if fd != nil {
						fd.Observe(env)
					}
					er.metrics.heartbeats.Inc()
					return nil
				}
				if fd != nil && !observed.Has(env.From) {
					observed = observed.Add(env.From)
					fd.Observe(env)
				}
				if env.Instance >= opened ||
					env.From < 1 || int(env.From) > er.n {
					er.unknown.Inc()
					er.unknownCount.Add(1)
					return nil
				}
				w := int(env.Instance % uint64(len(er.workers)))
				routed[w] = append(routed[w], engEvent{node: id, env: env})
				return nil
			})
			decoded.fold(er.ws.AddDecoded)
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
		// The batcher copies the frame into the link's pending buffer, so one
		// scratch buffer serves every frame this worker ever encodes.
		data, err := wire.AppendEnvelope(w.frame[:0], env)
		if err != nil {
			return err
		}
		w.frame = data
		w.encoded.add(env.Kind, len(data))
		if err := w.run.batchers[st.id].Send(dest, data); err != nil {
			return err
		}
	}
	return nil
}
