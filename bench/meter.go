package main

import (
	stdruntime "runtime"
	"time"

	"repro/internal/runtime"
)

// meter measures this process and one engine over a window: CPU, allocation
// and collector time, Engine.Stats at both ends, and the wrappers' totals
// when a tracer is installed. With profile set it also forces a collection
// at both ends (retained heap) and samples Engine.Stats every 10ms — extra
// work that only the traced run's reference pass takes on.
type meter struct {
	stats   func() runtime.EngineStats // nil: the engine is in another process
	tr      *tracer
	profile bool

	ms0     stdruntime.MemStats
	gc0     float64
	cpu0    time.Duration
	c0      traceCounters
	stop    chan struct{}
	sampled chan struct{} // closed when sampleStats has returned

	cpu                    time.Duration // this process, over the window
	mallocs, allocBytes    uint64
	gcCPU                  float64
	retained               int64
	stats0, stats1         runtime.EngineStats
	counters               traceCounters
	backlog                sample
	inflightSum, inflightN int64
}

func (mt *meter) begin() {
	mt.stop, mt.sampled = make(chan struct{}), make(chan struct{})
	if mt.profile && mt.stats != nil {
		stdruntime.GC()
		go mt.sampleStats()
	} else {
		close(mt.sampled)
	}
	stdruntime.ReadMemStats(&mt.ms0)
	if mt.stats != nil {
		mt.stats0 = mt.stats()
	}
	if mt.tr != nil {
		mt.c0 = mt.tr.counters()
		mt.tr.inWindow.Store(true)
	}
	mt.gc0, mt.cpu0 = gcCPUSeconds(), selfCPU()
}

func (mt *meter) end() {
	mt.cpu = selfCPU() - mt.cpu0
	mt.gcCPU = gcCPUSeconds() - mt.gc0
	if mt.tr != nil {
		mt.tr.inWindow.Store(false)
		mt.counters = mt.tr.counters().sub(mt.c0)
	}
	if mt.stats != nil {
		mt.stats1 = mt.stats()
	}
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	mt.mallocs, mt.allocBytes = ms.Mallocs-mt.ms0.Mallocs, ms.TotalAlloc-mt.ms0.TotalAlloc
	close(mt.stop)
	<-mt.sampled
	if mt.profile {
		stdruntime.GC()
		stdruntime.ReadMemStats(&ms)
		mt.retained = int64(ms.HeapAlloc) - int64(mt.ms0.HeapAlloc)
	}
}

func (mt *meter) sampleStats() {
	defer close(mt.sampled)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-mt.stop:
			return
		case <-tick.C:
			st := mt.stats()
			mt.backlog.add(st.Backlog)
			mt.inflightSum += st.InFlight
			mt.inflightN++
		}
	}
}

// processMetrics reports what an unwrapped in-process pass says about the
// engine layer. On a kv workload the process also holds serve and the
// in-process clients, so the allocation figures there are an upper bound.
func (mt *meter) processMetrics(m metricSet, commits float64) {
	n := int(commits)
	m.set("engine.allocs_per_commit", ratio(float64(mt.mallocs), commits), n)
	m.set("engine.alloc_bytes_per_commit", ratio(float64(mt.allocBytes), commits), n)
	m.set("engine.gc_cpu_share", ratio(mt.gcCPU, mt.cpu.Seconds()), 0)
	m.set("engine.wait_timeouts", float64(mt.stats1.WaitTimeouts-mt.stats0.WaitTimeouts), 0)
	m.set("engine.backlog_p50", float64(mt.backlog.pct(50)), mt.backlog.n())
	m.set("engine.backlog_max", float64(mt.backlog.max()), mt.backlog.n())
	m.set("engine.inflight_mean", ratio(float64(mt.inflightSum), float64(mt.inflightN)), int(mt.inflightN))
	m.set("engine.retained_bytes_per_commit", ratio(float64(mt.retained), commits), n)
	if c0, c1 := mt.stats0.Cost, mt.stats1.Cost; c0 != nil && c1 != nil {
		m.set("detector.control_msgs_per_commit", ratio(float64(c1.ControlMessages-c0.ControlMessages), commits), n)
	}
	m.set("detector.false_suspicions", float64(mt.stats1.FalseSuspicions-mt.stats0.FalseSuspicions), 0)
	m.set("detector.retractions", float64(mt.stats1.Retractions-mt.stats0.Retractions), 0)
}

// tracedMetrics reports what the wrappers recorded over the window, per
// commit, and what Engine.Stats counted beside them. A seam the pass could
// not wrap (serve.Config has no Network) leaves its timings unreported.
func (mt *meter) tracedMetrics(m metricSet, commits float64) {
	n := int(commits)
	c := mt.counters
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, commits) }

	m.set("consensus.new_busy_us_per_commit", us(c.newNS), n)
	m.set("consensus.msgs_busy_us_per_commit", us(c.msgsNS), n)
	m.set("consensus.trans_busy_us_per_commit", us(c.transNS), n)
	m.set("consensus.trans_calls_per_commit", ratio(float64(c.transCalls), commits), n)
	m.set("consensus.decide_round", float64(mt.tr.decideRound.Load()), 0)
	m.set("consensus.rounds_run", float64(mt.tr.roundsRun.Load()), 0)

	m.set("detector.observe_calls_per_commit", ratio(float64(c.observeCalls), commits), n)
	m.set("detector.observe_busy_us_per_commit", us(c.observeNS), n)
	m.set("detector.suspects_calls_per_commit", ratio(float64(c.suspectsCalls), commits), n)
	m.set("detector.suspects_busy_us_per_commit", us(c.suspectsNS), n)

	if c.sendCalls > 0 {
		m.set("transport.send_ns_per_packet", ratio(float64(c.sendNS), float64(c.sendCalls)), int(c.sendCalls))
		m.set("transport.send_busy_us_per_commit", us(c.sendNS), n)
	}
	m.set("engine.self_cpu_us_per_commit", ratio(float64(mt.cpu.Microseconds())-float64(c.busyNS())/1e3, commits), n)

	c0, c1 := mt.stats0.Cost, mt.stats1.Cost
	if c0 == nil || c1 == nil {
		return
	}
	frames := float64(c1.DataMessages - c0.DataMessages)
	dataPackets := float64((c1.Messages - c0.Messages) - (c1.ControlMessages - c0.ControlMessages))
	m.set("transport.bytes_per_commit", ratio(float64(c1.Bytes-c0.Bytes), commits), n)
	m.set("transport.dropped", float64(c1.Dropped-c0.Dropped), 0)
	m.set("wire.frames_per_commit", ratio(frames, commits), n)
	m.set("batcher.frames_per_packet", ratio(frames, dataPackets), int(dataPackets))
	m.set("batcher.packets_per_commit", ratio(dataPackets, commits), n)
}

// gapMetrics reports the heartbeat gaps the detector wrappers sampled. Call
// after the engine closed.
func gapMetrics(m metricSet, tr *tracer) {
	gaps := tr.heartbeatGaps()
	m.set("detector.hb_gap_us_p99", float64(gaps.pct(99))/1e3, gaps.n())
	m.set("detector.hb_gap_us_max", float64(gaps.max())/1e3, gaps.n())
}
