package runtime

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// kindTally is a private count of codec conversions per kind, folded into
// the shared netobs.WireStats in bulk: a node's receive function once per
// packet, a worker once per sweep. A sweep's frames are nearly all one kind,
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

// receiver returns node id's receive function, which the network calls with
// every packet delivered to the node: it feeds the shared detector and hands
// each round packet, whole, to the worker that owns it. Every node shards
// instances alike and a worker batches only its own instances, so a
// packet's first round frame names the owner of all of them. The function
// decodes control frames and splits the header off that first round frame
// — the detector hears from a sender once per packet (the Detector.Observe
// contract) — and leaves every round frame to the owner. It never blocks,
// and its decode tally is its own: TCPNetwork calls it concurrently.
func (er *engineRun) receiver(id model.ProcessID) func(Packet) {
	fd := er.fds[id]
	return func(pkt Packet) {
		var owner *engWorker
		var decoded kindTally
		_ = wire.SplitBatch(pkt.Data, func(frame []byte) error {
			if owner != nil && !wire.PeekControl(frame) {
				return nil // the owner's to file
			}
			env, payload, err := wire.Split(frame)
			if err != nil {
				return nil // corrupt frame: drop, keep the batch
			}
			if env.Kind.Control() {
				env.Payload, _ = wire.DecodePayload(env.Kind, payload) // Split validated it
				decoded.add(env.Kind, len(frame))
				if fd != nil {
					fd.Observe(env)
				}
				er.metrics.heartbeats.Inc()
				return nil
			}
			if fd != nil {
				fd.Observe(env)
			}
			owner = er.workers[env.Instance%uint64(len(er.workers))]
			return nil
		})
		decoded.fold(er.ws.AddDecoded)
		if owner != nil {
			owner.mb.push(engEvent{node: id, pkt: pkt.Data})
		}
	}
}

// sendRound transmits st's round-r messages (msgs, the automaton's Msgs(r))
// through this worker's batcher for st's node, tagged with the instance id,
// to the first reach destinations (all n−1 unless the node is crashing).
func (w *engWorker) sendRound(st *instState, r, reach int, msgs []rounds.Message) error {
	if msgs != nil {
		st.rows[r].sent = msgs[st.id]
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
		if err := w.links[st.id].Send(dest, data); err != nil {
			return err
		}
	}
	return nil
}
