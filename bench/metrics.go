package main

import (
	"fmt"
	"sort"
)

// metricDef is one catalogue entry. The catalogue is the benchmark's own
// list of what it reports; BENCHMARK.json repeats it (with bounds) and the
// test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists what a user of the system sees. Every workload reports all
// of them, from a run with no wrapper installed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_per_s", "commits/s", "higher"},
	{"commit_p50_us", "us", "lower"},
	{"commit_p95_us", "us", "lower"},
	{"rounds_per_commit", "rounds", "lower"},
}

// perLayer lists the single-layer figures of the traced run. A metric whose
// layer does not run in a workload, or cannot be reached from outside there,
// reads 0 on that workload.
var perLayer = []metricDef{
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.encode_allocs_per_frame", "count", "lower"},
	{"wire.decode_allocs_per_frame", "count", "lower"},
	{"wire.bytes_per_frame", "B", "lower"},
	{"wire.frames_per_commit", "count", "lower"},
	{"wire.codec_us_per_commit", "us", "lower"},

	{"batcher.frames_per_packet", "count", "higher"},
	{"batcher.packets_per_commit", "count", "lower"},
	{"batcher.send_ns_per_frame", "ns", "lower"},
	{"batcher.flush_wait_us_p50", "us", "lower"},
	{"batcher.flush_wait_us_p95", "us", "lower"},

	{"transport.send_ns_per_packet", "ns", "lower"},
	{"transport.send_busy_us_per_commit", "us", "lower"},
	{"transport.bytes_per_commit", "B", "lower"},
	{"transport.dropped", "count", "lower"},
	{"transport.deliver_us_p50", "us", "lower"},
	{"transport.deliver_us_p95", "us", "lower"},

	{"detector.observe_calls_per_commit", "count", "lower"},
	{"detector.observe_busy_us_per_commit", "us", "lower"},
	{"detector.suspects_calls_per_commit", "count", "lower"},
	{"detector.suspects_busy_us_per_commit", "us", "lower"},
	{"detector.hb_gap_us_p99", "us", "lower"},
	{"detector.hb_gap_us_max", "us", "lower"},
	{"detector.control_msgs_per_commit", "count", "lower"},
	{"detector.false_suspicions", "count", "lower"},
	{"detector.retractions", "count", "lower"},

	{"consensus.new_busy_us_per_commit", "us", "lower"},
	{"consensus.msgs_busy_us_per_commit", "us", "lower"},
	{"consensus.trans_busy_us_per_commit", "us", "lower"},
	{"consensus.trans_calls_per_commit", "count", "lower"},
	{"consensus.decide_round", "rounds", "lower"},
	{"consensus.rounds_run", "rounds", "lower"},

	{"engine.open_ns_per_call", "ns", "lower"},
	{"engine.allocs_per_commit", "count", "lower"},
	{"engine.alloc_bytes_per_commit", "B", "lower"},
	{"engine.commit_p99_us", "us", "lower"},
	{"engine.gc_cpu_share", "ratio", "lower"},
	{"engine.wait_timeouts", "count", "lower"},
	{"engine.backlog_p50", "count", "lower"},
	{"engine.backlog_max", "count", "lower"},
	{"engine.inflight_mean", "count", "lower"},
	{"engine.retained_bytes_per_commit", "B", "lower"},
	{"engine.self_cpu_us_per_commit", "us", "lower"},
	{"engine.solo_commit_p50_us", "us", "lower"},

	{"serve.read_p50_us", "us", "lower"},
	{"serve.read_p95_us", "us", "lower"},
	{"serve.read_handler_ns_p50", "ns", "lower"},
	{"serve.conflict_handler_us_p50", "us", "lower"},
	{"serve.cas_handler_us_p50", "us", "lower"},
	{"serve.cas_self_us_p50", "us", "lower"},
	{"serve.conflict_p50_us", "us", "lower"},
	{"serve.conflict_share", "ratio", "lower"},
	{"serve.http_overhead_us_p50", "us", "lower"},
	{"serve.http_cas_overhead_us_p50", "us", "lower"},
	{"serve.daemon_cpu_us_per_op", "us", "lower"},
	{"serve.rss_end_mb", "MB", "lower"},
	{"serve.rss_growth_mb", "MB", "lower"},
	{"serve.msgs_per_decision", "count", "lower"},

	{"process.cpu_us_per_commit", "us", "lower"},
	{"loadgen.late_us_p50", "us", "lower"},
	{"loadgen.late_us_p95", "us", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// metricValue is one reported number. N is the sample count behind a
// timing (0 for counts and ratios of totals).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet is what one run reports. set refuses a name the catalogue does
// not carry, so a metric cannot be emitted without a unit.
type metricSet map[string]metricValue

func (m metricSet) set(name string, value float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	m[name] = metricValue{Value: value, Unit: unit, N: n}
}

// fill reports 0 for every catalogue entry of defs the run did not reach.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, 0, 0)
		}
	}
}

func (m metricSet) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ratio divides, answering 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
