package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/tracing"
)

// This file is the request-observability layer (PR 10): every HTTP request
// gets an id and a phase-mark timeline; sampled requests additionally carry
// a full causal span tree — http → kv flight → consensus instance, the
// instance assembled at per-round resolution by a tracing.Tracer on the
// instance's event sink, the same tracer that watches a RunCluster run.
// Two exact-tiling invariants hold by construction and are enforced by
// VerifyRequestTrace:
//
//  1. The request phases (handler/queue/contention/consensus/commit) tile
//     the measured wall-clock total exactly — the marks are a monotone
//     sequence of shared boundary stamps, so the intervals telescope.
//  2. The embedded instance trace passes tracing.Attribute + CheckSums —
//     the same barrier/fd-timeout/transport/compute discipline PR 5
//     established for offline runs, reconciled live per request.

// phaseMark is one boundary in a request's timeline: the named phase runs
// from this stamp to the next mark (or the request end).
type phaseMark struct {
	phase string
	at    time.Time
}

// reqTracker accumulates one request's observability state. It lives in the
// request context and is touched only from the request goroutine (the
// commit stamp crosses over via the flight, not the tracker), so it needs
// no lock. All methods are nil-safe: an untraced context costs nothing.
type reqTracker struct {
	id      string
	route   string
	method  string
	key     string
	sampled bool
	start   time.Time
	marks   []phaseMark

	tracer   *tracing.Tracer // set by the kv flight owner when sampled
	instance uint64
	hasInst  bool
}

// markAt closes the current phase at the given stamp and opens the named
// one. Stamps are clamped monotone so the intervals always telescope.
func (tk *reqTracker) markAt(phase string, at time.Time) {
	if tk == nil {
		return
	}
	if n := len(tk.marks); n > 0 {
		if last := &tk.marks[n-1]; at.Before(last.at) {
			at = last.at
		}
	}
	tk.marks = append(tk.marks, phaseMark{phase: phase, at: at})
}

// mark is markAt(now).
func (tk *reqTracker) mark(phase string) {
	if tk == nil {
		return
	}
	tk.markAt(phase, time.Now())
}

// seal finishes the request's instance tracer, if it has one, so every
// runtime span it holds ends before the mark that follows. A CAS is answered
// at its instance's first decision while the relaying tail is still running:
// the tail's events arrive after the seal and are dropped by design — the
// trace is of the request, and the request's consensus ended at the decision.
func (tk *reqTracker) seal() {
	if tk != nil && tk.tracer != nil {
		tk.tracer.Finish()
	}
}

type trackerKeyType struct{}

func withTracker(ctx context.Context, tk *reqTracker) context.Context {
	return context.WithValue(ctx, trackerKeyType{}, tk)
}

func trackerFrom(ctx context.Context) *reqTracker {
	tk, _ := ctx.Value(trackerKeyType{}).(*reqTracker)
	return tk
}

// RequestPhases is a request's latency attribution: five contiguous slices
// tiling [0, TotalNS] exactly (VerifyRequestTrace checks the sum).
type RequestPhases struct {
	// HandlerNS: parse, dispatch, response encoding — everything not below.
	HandlerNS int64 `json:"handler_ns"`
	// QueueNS: blocked behind another client's in-flight KV instance.
	QueueNS int64 `json:"queue_ns"`
	// ContentionNS: CAS head checks, slot acquisition and retry overhead.
	ContentionNS int64 `json:"contention_ns"`
	// ConsensusNS: own instance open → engine decision callback (the
	// instance's first decision; its tail is not the request's time).
	ConsensusNS int64 `json:"consensus_ns"`
	// CommitNS: decision callback → waiter wakeup.
	CommitNS int64 `json:"commit_ns"`
}

// Total sums the phases.
func (p RequestPhases) Total() int64 {
	return p.HandlerNS + p.QueueNS + p.ContentionNS + p.ConsensusNS + p.CommitNS
}

// RequestTrace is one finished request's observability record: identity,
// verdict, exact phase attribution and — when sampled — the full causal
// span tree (request phases on the global track, the consensus instance's
// per-node send/wait/compute rounds on process tracks).
type RequestTrace struct {
	ID       string         `json:"id"`
	Route    string         `json:"route"`
	Method   string         `json:"method"`
	Key      string         `json:"key,omitempty"`
	Status   int            `json:"status"`
	Start    time.Time      `json:"start"`
	TotalNS  int64          `json:"total_ns"`
	Sampled  bool           `json:"sampled"`
	Instance *uint64        `json:"instance,omitempty"`
	Phases   RequestPhases  `json:"phases"`
	Trace    *tracing.Trace `json:"trace,omitempty"`
}

// phasesOf folds the mark timeline into the attribution. end must be the
// same stamp TotalNS was computed from — the intervals then telescope to
// exactly end − marks[0].at.
func phasesOf(marks []phaseMark, end time.Time) RequestPhases {
	var p RequestPhases
	for i := range marks {
		stop := end
		if i+1 < len(marks) {
			stop = marks[i+1].at
		}
		d := stop.Sub(marks[i].at).Nanoseconds()
		if d < 0 {
			d = 0
		}
		switch marks[i].phase {
		case tracing.KindQueue:
			p.QueueNS += d
		case tracing.KindContention:
			p.ContentionNS += d
		case tracing.KindConsensus:
			p.ConsensusNS += d
		case tracing.KindCommit:
			p.CommitNS += d
		default:
			p.HandlerNS += d
		}
	}
	return p
}

// finish seals the tracker into its record. end is the middleware's final
// stamp; code the response status.
func (tk *reqTracker) finish(s *Server, end time.Time, code int) *RequestTrace {
	total := end.Sub(tk.start).Nanoseconds()
	if total < 0 {
		total = 0
	}
	rec := &RequestTrace{
		ID: tk.id, Route: tk.route, Method: tk.method, Key: tk.key,
		Status: code, Start: tk.start, TotalNS: total, Sampled: tk.sampled,
		Phases: phasesOf(tk.marks, end),
	}
	if tk.hasInst {
		v := tk.instance
		rec.Instance = &v
	}
	if tk.sampled {
		var consensus tracing.SpanID
		rec.Trace, consensus = assembleTrace(s.eng.Algorithm().Name(), s.eng.N(), s.cfg.T,
			tk.start, total, tk.marks)
		if tk.tracer != nil {
			// Sealed when the CAS stopped waiting (Finish is idempotent): the
			// instance keeps emitting, but the record no longer changes.
			rec.Trace.Graft(consensus, tk.tracer.Finish(), tk.tracer.Epoch().Sub(tk.start).Nanoseconds())
		}
	}
	return rec
}

// assembleTrace builds the request half of a sampled request's span tree:
// a request root span with one child per phase interval on the global
// track. It returns the trace and the consensus phase's span id, under
// which the instance's per-node run→round→{send,wait,compute} spans — the
// shape tracing.Attribute decomposes — are grafted. Times are nanoseconds
// from the request start, clamped monotone into [0, totalNS].
func assembleTrace(alg string, n, t int, start time.Time, totalNS int64,
	marks []phaseMark) (*tracing.Trace, tracing.SpanID) {
	tr := &tracing.Trace{Algorithm: alg, Model: "RWS", N: n, T: t, Timebase: "wall"}
	rel := func(at time.Time) int64 {
		return min(max(at.Sub(start).Nanoseconds(), 0), totalNS)
	}
	const root tracing.SpanID = 1
	tr.Spans = append(tr.Spans, tracing.Span{
		ID: root, Proc: 0, Kind: tracing.KindRequest, Cat: tracing.CatServe,
		Start: 0, End: totalNS,
	})
	consensus := root
	for i := range marks {
		e := totalNS
		if i+1 < len(marks) {
			e = rel(marks[i+1].at)
		}
		id := root + 1 + tracing.SpanID(i)
		tr.Spans = append(tr.Spans, tracing.Span{
			ID: id, Parent: root, Proc: 0, Kind: marks[i].phase, Cat: tracing.CatServe,
			Start: rel(marks[i].at), End: e,
		})
		if marks[i].phase == tracing.KindConsensus && consensus == root {
			consensus = id
		}
	}
	return tr, consensus
}

// VerifyRequestTrace checks the record's two exact-tiling invariants: the
// request phases sum to the measured total, and (when a span tree is
// embedded) the consensus instance's per-node attribution passes CheckSums
// with every runtime span inside the request's consensus phase window —
// the live reconciliation of the PR 5 discipline.
func VerifyRequestTrace(rec *RequestTrace) error {
	if got := rec.Phases.Total(); got != rec.TotalNS {
		return fmt.Errorf("serve: request %s phases sum to %dns, measured total %dns", rec.ID, got, rec.TotalNS)
	}
	if rec.Trace == nil {
		return nil
	}
	attr := tracing.Attribute(rec.Trace)
	if err := attr.CheckSums(); err != nil {
		return fmt.Errorf("serve: request %s instance attribution: %w", rec.ID, err)
	}
	// Containment: the instance's spans must sit inside the request's
	// consensus phase (plus commit — the decision callback runs at the
	// consensus/commit boundary, and the tracer is sealed as commit ends).
	var lo, hi int64 = -1, -1
	for i := range rec.Trace.Spans {
		sp := &rec.Trace.Spans[i]
		if sp.Cat != tracing.CatServe {
			continue
		}
		if sp.Kind == tracing.KindConsensus || sp.Kind == tracing.KindCommit {
			if lo < 0 || sp.Start < lo {
				lo = sp.Start
			}
			if sp.End > hi {
				hi = sp.End
			}
		}
	}
	for i := range rec.Trace.Spans {
		sp := &rec.Trace.Spans[i]
		if sp.Cat != tracing.CatRuntime {
			continue
		}
		if lo < 0 {
			return fmt.Errorf("serve: request %s has instance spans but no consensus phase", rec.ID)
		}
		if sp.Start < lo || sp.End > hi {
			return fmt.Errorf("serve: request %s %s span [%d,%d] outside consensus window [%d,%d]",
				rec.ID, sp.Kind, sp.Start, sp.End, lo, hi)
		}
	}
	return nil
}

// SamplingStats reports the trace store's configuration and tallies
// (/v1/status and /v1/debug/traces).
type SamplingStats struct {
	// Rate is the configured head-sampling rate in [0,1]; 0 means sampling
	// is disabled.
	Rate float64 `json:"rate"`
	// Requests and Sampled count requests seen and requests deep-traced.
	Requests int64 `json:"requests"`
	Sampled  int64 `json:"sampled"`
	// RecentCap / SlowestPerRoute are the ring capacities.
	RecentCap       int `json:"recent_cap"`
	SlowestPerRoute int `json:"slowest_per_route"`
}

// DebugTraces is the GET /v1/debug/traces body: the sampling state, the
// most recent sampled requests (newest first) and the slowest exemplars
// per route. Records here are summaries — the span trees stay behind
// GET /v1/debug/trace/{id}.
type DebugTraces struct {
	Sampling SamplingStats             `json:"sampling"`
	Recent   []RequestTrace            `json:"recent"`
	Slowest  map[string][]RequestTrace `json:"slowest"`
}

// traceStore is the sampler plus the two exemplar rings. It is a pure data
// structure — no goroutines — so Shutdown has nothing to stop and the
// goroutine-leak test holds trivially.
//
// Head sampling is deterministic: with rate r, every round(1/r)-th request
// is sampled (the first always is). Determinism keeps tests exact and the
// overhead measurable; there is no adversary to defeat with randomness.
// Exemplars are independent of sampling: the slowest-N requests per route
// are always retained, with phase attribution (phases are computed for
// every request — they cost four clock reads), sampled or not.
type traceStore struct {
	rate    float64
	stride  uint64 // 0 = never sample, 1 = always, k = every k-th request
	recCap  int
	slowCap int

	mu      sync.Mutex
	seq     uint64
	sampled int64
	recent  []*RequestTrace // ring of sampled records
	next    int
	slow    map[string][]*RequestTrace // per route, sorted slowest-first
}

func newTraceStore(rate float64, recentCap, slowCap int) *traceStore {
	ts := &traceStore{rate: rate, recCap: recentCap, slowCap: slowCap,
		slow: make(map[string][]*RequestTrace)}
	switch {
	case rate <= 0:
		ts.stride = 0
		ts.rate = 0
	case rate >= 1:
		ts.stride = 1
		ts.rate = 1
	default:
		ts.stride = uint64(math.Round(1 / rate))
	}
	return ts
}

// begin assigns the next request id and the sampling verdict.
func (ts *traceStore) begin() (id string, sampled bool) {
	ts.mu.Lock()
	ts.seq++
	id = fmt.Sprintf("r%08d", ts.seq)
	sampled = ts.stride > 0 && (ts.seq-1)%ts.stride == 0
	if sampled {
		ts.sampled++
	}
	ts.mu.Unlock()
	return id, sampled
}

// add files a finished record: sampled records enter the recent ring, and
// every record competes for its route's slowest exemplars.
func (ts *traceStore) add(rec *RequestTrace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if rec.Sampled {
		if len(ts.recent) < ts.recCap {
			ts.recent = append(ts.recent, rec)
		} else {
			ts.recent[ts.next] = rec
			ts.next = (ts.next + 1) % ts.recCap
		}
	}
	row := ts.slow[rec.Route]
	if len(row) < ts.slowCap || rec.TotalNS > row[len(row)-1].TotalNS {
		row = append(row, rec)
		sort.Slice(row, func(i, j int) bool { return row[i].TotalNS > row[j].TotalNS })
		if len(row) > ts.slowCap {
			row = row[:ts.slowCap]
		}
		ts.slow[rec.Route] = row
	}
}

// get looks a request id up in the recent ring and the exemplar rows. The
// scan is bounded by recentCap + routes×slowCap — no index to keep coherent.
func (ts *traceStore) get(id string) *RequestTrace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, rec := range ts.recent {
		if rec.ID == id {
			return rec
		}
	}
	for _, row := range ts.slow {
		for _, rec := range row {
			if rec.ID == id {
				return rec
			}
		}
	}
	return nil
}

// stats snapshots the sampling tallies.
func (ts *traceStore) stats() SamplingStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return SamplingStats{
		Rate:            ts.rate,
		Requests:        int64(ts.seq),
		Sampled:         ts.sampled,
		RecentCap:       ts.recCap,
		SlowestPerRoute: ts.slowCap,
	}
}

// debug snapshots the store for GET /v1/debug/traces: summaries only, the
// recent ring newest-first.
func (ts *traceStore) debug() DebugTraces {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := DebugTraces{
		Sampling: SamplingStats{
			Rate: ts.rate, Requests: int64(ts.seq), Sampled: ts.sampled,
			RecentCap: ts.recCap, SlowestPerRoute: ts.slowCap,
		},
		Slowest: make(map[string][]RequestTrace, len(ts.slow)),
	}
	for i := len(ts.recent) - 1; i >= 0; i-- {
		// Ring order: ts.next-1 backwards is newest-first once wrapped.
		idx := i
		if len(ts.recent) == ts.recCap {
			idx = ((ts.next+i)%ts.recCap + ts.recCap) % ts.recCap
		}
		out.Recent = append(out.Recent, summaryOf(ts.recent[idx]))
	}
	for route, row := range ts.slow {
		for _, rec := range row {
			out.Slowest[route] = append(out.Slowest[route], summaryOf(rec))
		}
	}
	return out
}

// summaryOf copies a record without its span tree.
func summaryOf(rec *RequestTrace) RequestTrace {
	sum := *rec
	sum.Trace = nil
	return sum
}
