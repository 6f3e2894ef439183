package main

import (
	"encoding/binary"
	"fmt"
	stdruntime "runtime"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// standaloneLayers drives each layer alone, fed the packets a traced
// pass's Network wrapper captured, and finishes the figures that combine a
// standalone cost with a traced count. commitsPerSec is the rate the traced
// pass committed at; m already holds its wire.frames_per_commit.
func standaloneLayers(m metricSet, packets [][]byte, n int, commitsPerSec float64, budget time.Duration) error {
	if err := wireReplay(m, packets, budget); err != nil {
		return err
	}
	framesPerCommit := m["wire.frames_per_commit"].Value
	codecUS := framesPerCommit * (m["wire.encode_ns_per_frame"].Value + m["wire.decode_ns_per_frame"].Value) / 1e3
	m.set("wire.codec_us_per_commit", codecUS, 0)
	if self, ok := m["engine.self_cpu_us_per_commit"]; ok {
		m.set("engine.self_cpu_us_per_commit", self.Value-codecUS, self.N)
	}
	// The batcher alone sees the frame rate one node's links saw.
	if err := batcherAlone(m, n, framesPerCommit*commitsPerSec/float64(n), packets, budget); err != nil {
		return err
	}
	if err := transportAlone(m, budget); err != nil {
		return err
	}
	return engineSolo(m, budget)
}

// wireReplay times the codec over the captured frames.
func wireReplay(m metricSet, packets [][]byte, budget time.Duration) error {
	var frames [][]byte
	var bytes int
	for _, pkt := range packets {
		err := wire.SplitBatch(pkt, func(f []byte) error {
			frames = append(frames, f)
			bytes += len(f)
			return nil
		})
		if err != nil {
			return fmt.Errorf("wire replay: captured packet does not split: %w", err)
		}
	}
	if len(frames) == 0 {
		return fmt.Errorf("wire replay: the traced pass captured no frames")
	}
	envs := make([]wire.Envelope, len(frames))
	var ms0, ms1 stdruntime.MemStats

	stdruntime.ReadMemStats(&ms0)
	t0 := time.Now()
	decoded := 0
	for time.Since(t0) < budget {
		for i, f := range frames {
			env, err := wire.Decode(f)
			if err != nil {
				return fmt.Errorf("wire replay: decode: %w", err)
			}
			envs[i] = env
		}
		decoded += len(frames)
	}
	decodeNS := time.Since(t0).Nanoseconds()
	stdruntime.ReadMemStats(&ms1)
	m.set("wire.decode_ns_per_frame", float64(decodeNS)/float64(decoded), decoded)
	m.set("wire.decode_allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(decoded), decoded)

	stdruntime.ReadMemStats(&ms0)
	t0 = time.Now()
	encoded := 0
	for time.Since(t0) < budget {
		for i, env := range envs {
			out, err := wire.Encode(env)
			if err != nil {
				return fmt.Errorf("wire replay: encode: %w", err)
			}
			if len(out) != len(frames[i]) {
				return fmt.Errorf("wire replay: frame %d re-encodes to %d bytes, was %d", i, len(out), len(frames[i]))
			}
		}
		encoded += len(envs)
	}
	encodeNS := time.Since(t0).Nanoseconds()
	stdruntime.ReadMemStats(&ms1)
	m.set("wire.encode_ns_per_frame", float64(encodeNS)/float64(encoded), encoded)
	m.set("wire.encode_allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(encoded), encoded)
	m.set("wire.bytes_per_frame", float64(bytes)/float64(len(frames)), len(frames))
	return nil
}

// stubTransport is the inner transport of the standalone batcher: it stamps
// when each flushed frame left.
type stubTransport struct {
	mu      sync.Mutex
	pending [][]int64 // by destination: Send stamps of frames not yet flushed
	waits   sample
}

func (s *stubTransport) LocalID() model.ProcessID    { return 1 }
func (s *stubTransport) Recv() <-chan runtime.Packet { return nil }
func (s *stubTransport) Close() error                { return nil }
func (s *stubTransport) stamp(to model.ProcessID, at int64) {
	s.mu.Lock()
	s.pending[to] = append(s.pending[to], at)
	s.mu.Unlock()
}

func (s *stubTransport) Send(to model.ProcessID, data []byte) error {
	at := now()
	k := wire.BatchLen(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.pending[to]
	if k > len(q) {
		k = len(q)
	}
	for _, sent := range q[:k] {
		s.waits.add(at - sent)
	}
	s.pending[to] = q[k:]
	return nil
}

// batcherAlone drives runtime.NewBatcher (shipped defaults) over a stub
// transport at framesPerSec spread over one node's n-1 links, and reports
// the cost of Send and how long a frame waits for its flush. Nothing calls
// Flush here, so the wait is the batcher's own count/timer policy; the
// engine's end-of-sweep flush can only shorten it.
func batcherAlone(m metricSet, n int, framesPerSec float64, packets [][]byte, budget time.Duration) error {
	var frame []byte
	for _, pkt := range packets {
		_ = wire.SplitBatch(pkt, func(f []byte) error {
			if frame == nil {
				frame = f
			}
			return nil
		})
	}
	if frame == nil || n < 2 || framesPerSec <= 0 {
		return fmt.Errorf("batcher alone: nothing to replay (n=%d, %.0f frames/s)", n, framesPerSec)
	}
	stub := &stubTransport{pending: make([][]int64, n+1)}
	b := runtime.NewBatcher(stub, runtime.BatcherConfig{})
	gap := time.Duration(float64(time.Second) / framesPerSec)
	start := time.Now()
	var sendNS int64
	sent := 0
	for due := time.Duration(0); due < budget; due += gap {
		// Pace to the due time: sleep through long gaps, spin the short ones.
		for {
			ahead := due - time.Since(start)
			if ahead <= 0 {
				break
			}
			if ahead > 200*time.Microsecond {
				time.Sleep(ahead - 100*time.Microsecond)
			}
		}
		to := model.ProcessID(2 + sent%(n-1))
		t0 := now()
		stub.stamp(to, t0)
		if err := b.Send(to, frame); err != nil {
			return fmt.Errorf("batcher alone: %w", err)
		}
		sendNS += now() - t0
		sent++
	}
	if err := b.Close(); err != nil {
		return fmt.Errorf("batcher alone: close: %w", err)
	}
	m.set("batcher.send_ns_per_frame", float64(sendNS)/float64(sent), sent)
	m.set("batcher.flush_wait_us_p50", float64(stub.waits.pct(50))/1e3, stub.waits.n())
	m.set("batcher.flush_wait_us_p95", float64(stub.waits.pct(95))/1e3, stub.waits.n())
	return nil
}

// transportAlone measures the bare mesh: one packet per millisecond from
// node 1 to node 2 of the default ChanNetwork, Send to receipt.
func transportAlone(m metricSet, budget time.Duration) error {
	nw := runtime.NewChanNetwork(2, defaultMesh)
	src, dst := nw.Endpoint(1), nw.Endpoint(2)
	count := int(budget / time.Millisecond)
	var deliver sample
	sent, got := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(got)
		var allSent <-chan struct{} = sent
		var lost <-chan time.Time // armed once the last packet has left
		for deliver.n() < count {
			select {
			case pkt := <-dst.Recv():
				deliver.add(now() - int64(binary.LittleEndian.Uint64(pkt.Data)))
			case <-allSent:
				allSent, lost = nil, time.After(time.Second)
			case <-lost:
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < count; i++ {
		if wait := time.Duration(i)*time.Millisecond - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(now()))
		if err := src.Send(2, buf); err != nil {
			return fmt.Errorf("transport alone: %w", err)
		}
	}
	close(sent)
	<-got
	if err := nw.Close(); err != nil {
		return fmt.Errorf("transport alone: close: %w", err)
	}
	if deliver.n() != count {
		return fmt.Errorf("transport alone: %d of %d packets arrived", deliver.n(), count)
	}
	m.set("transport.deliver_us_p50", float64(deliver.pct(50))/1e3, deliver.n())
	m.set("transport.deliver_us_p95", float64(deliver.pct(95))/1e3, deliver.n())
	return nil
}

// engineSolo is the single-node floor: n=1, t=0, one instance at a time, so
// a commit is two rounds with no message on any link.
func engineSolo(m metricSet, budget time.Duration) error {
	eng, err := runtime.StartEngine(consensus.FloodSetWS{}, runtime.EngineConfig{N: 1, T: 0})
	if err != nil {
		return fmt.Errorf("engine solo: %w", err)
	}
	var lat sample
	for t0 := time.Now(); time.Since(t0) < budget; {
		opened := now()
		h, err := eng.OpenValue(7)
		if err != nil {
			_ = eng.Close()
			return fmt.Errorf("engine solo: %w", err)
		}
		<-h.Done()
		lat.add(now() - opened)
		if out, _ := h.Outcome(); out.Err != nil || !out.Decided[0] || out.Decisions[0] != 7 {
			_ = eng.Close()
			return fmt.Errorf("engine solo: instance %d did not decide its only proposal", h.ID())
		}
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("engine solo: close: %w", err)
	}
	m.set("engine.solo_commit_p50_us", float64(lat.pct(50))/1e3, lat.n())
	return nil
}
