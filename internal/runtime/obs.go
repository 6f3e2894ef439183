package runtime

import (
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// Metric names exported by the live runtime. The round-duration histogram
// carries {algorithm="...",model="..."}; the detector-owned ssfd_fd_*
// families carry {detector="heartbeat"|"bounded"|...} (the node-side
// ssfd_fd_heartbeats_received_total stays unlabelled — the receive function
// counts control traffic without knowing who sent it). The transport
// families (ssfd_transport_*, labelled {transport="chan"|"tcp"}) are package
// netobs's: its per-link tap does all transport accounting.
const (
	MetricRoundDuration       = "ssfd_node_round_duration_ns" // histogram, nanoseconds
	MetricNodeRounds          = "ssfd_node_rounds_total"
	MetricHeartbeatsSent      = "ssfd_fd_heartbeats_sent_total"
	MetricHeartbeatsReceived  = "ssfd_fd_heartbeats_received_total"
	MetricSuspicionsRaised    = "ssfd_fd_suspicions_raised_total"
	MetricSuspicionsRetracted = "ssfd_fd_suspicions_retracted_total"
	MetricFDEncodeErrors      = "ssfd_fd_encode_errors_total"
	MetricNodeWaitTimeouts    = "ssfd_node_wait_timeouts_total"
)

// nodeMetrics caches the per-node instruments (shared across the engine's
// nodes and workers: counters are atomic and the histogram is
// concurrency-safe).
type nodeMetrics struct {
	roundDuration *obs.Histogram
	rounds        *obs.Counter
	heartbeats    *obs.Counter // heartbeats observed by the receive functions
	waitTimeouts  *obs.Counter // RWS wait-bound expiries (liveness guard); the engine's own, scoped
}

func newNodeMetrics(reg *obs.Registry, algorithm string, kind rounds.ModelKind) nodeMetrics {
	// Per-round wall-clock is the trace-level quantity the paper's §5
	// efficiency claim is about; labelling it by algorithm and model lets
	// one exposition endpoint show the RS-vs-RWS latency split directly.
	name := obs.Label(obs.Label(MetricRoundDuration, "algorithm", algorithm), "model", kind.String())
	return nodeMetrics{
		roundDuration: reg.Histogram(name, obs.DefaultDurationBuckets),
		rounds:        reg.Counter(MetricNodeRounds),
		heartbeats:    reg.Counter(MetricHeartbeatsReceived),
		waitTimeouts:  reg.Counter(MetricNodeWaitTimeouts).Scoped(),
	}
}

// fdMetrics caches the failure detector's instruments. Every family
// carries a {detector="..."} label so the zoo's implementations stay
// distinguishable on one exposition endpoint.
type fdMetrics struct {
	heartbeatsSent *obs.Counter
	raised         *obs.Counter
	retracted      *obs.Counter // the observer's own, scoped
	encodeErrors   *obs.Counter // the observer's own, scoped
}

func newFDMetrics(reg *obs.Registry, detector string) fdMetrics {
	l := func(name string) string { return obs.Label(name, "detector", detector) }
	return fdMetrics{
		heartbeatsSent: reg.Counter(l(MetricHeartbeatsSent)),
		raised:         reg.Counter(l(MetricSuspicionsRaised)),
		retracted:      reg.Counter(l(MetricSuspicionsRetracted)).Scoped(),
		encodeErrors:   reg.Counter(l(MetricFDEncodeErrors)).Scoped(),
	}
}

// TelemetrySource is implemented by networks that expose their per-link
// telemetry. Both ChanNetwork and TCPNetwork satisfy it; the engine probes
// for it to fold transport totals into its cost summary.
type TelemetrySource interface {
	Telemetry() *netobs.LinkTap
}
