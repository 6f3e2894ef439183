// Package serve turns the shared-mesh runtime engine into a long-lived
// consensus service: one live cluster (n nodes, one mesh, one failure
// detector per node) behind an HTTP/JSON API. Raw consensus instances are
// opened with POST /v1/propose and read back with GET /v1/instance/{id};
// on top of them the package layers a linearizable check-and-set KV store
// where each key's version history is a chain of consensus instances — the
// classic state-machine-replication construction. A write is committed and
// answered at its instance's first decision, which uniform agreement makes
// final; the instance's remaining rounds run behind the answer. An optional
// conformance monitor checks the paper's agreement and validity predicates on
// every halted instance, in production, not just in tests.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/tracing"
)

// Serving metric names.
const (
	// MetricServeRequests counts HTTP requests, labeled by method: GET,
	// HEAD, POST, or "other" for any method a client makes up.
	MetricServeRequests = "ssfd_serve_requests_total"
	// MetricServeCASOK / MetricServeCASConflicts count the KV CAS verdicts.
	MetricServeCASOK        = "ssfd_serve_cas_ok_total"
	MetricServeCASConflicts = "ssfd_serve_cas_conflict_total"
	// MetricServeDrained counts proposals refused while draining.
	MetricServeDrained = "ssfd_serve_drained_total"

	// MetricHTTPRequests counts finished HTTP requests labeled by route and
	// status code; MetricHTTPDuration buckets their wall-clock latency in
	// nanoseconds per route; MetricHTTPSampled counts deep-traced requests.
	MetricHTTPRequests = "ssfd_http_requests_total"
	MetricHTTPDuration = "ssfd_http_request_duration_ns"
	MetricHTTPSampled  = "ssfd_http_sampled_total"
)

// Config assembles the serving daemon.
type Config struct {
	// N is the cluster size, T the resilience bound.
	N, T int
	// Algorithm is the consensus algorithm every instance runs; nil defaults
	// to C_OptFloodSetWS, which decides a unanimous proposal — every KV write
	// — in round 1 (lat = 1, §5.2). It must be uniform in RWS, the discipline
	// the engine runs: a CAS is answered at its instance's first decision,
	// so an algorithm whose decisions can fork there (FloodSet, A1) would fork
	// the chain. cmd/ssfd-serve refuses those by name.
	Algorithm rounds.Algorithm
	// Detector selects the failure-detector construction (nil: all-to-all
	// heartbeat). One detector per node serves every instance.
	Detector *runtime.DetectorSpec
	// Groups is the engine's shard-worker count (0: runtime default).
	Groups int

	HeartbeatPeriod time.Duration
	SuspectTimeout  time.Duration
	// MaxRounds is a safety cap (0: default t+2); instances halt at
	// quiescence (see runtime.EngineConfig.MaxRounds).
	MaxRounds int
	// WaitBound bounds each round's receive-or-suspect wait. The serving
	// default is 2s — a server must degrade a starved instance, not park a
	// client for the engine's 30s batch default.
	WaitBound time.Duration

	// Faults, when non-nil, interposes the seeded per-link injector under
	// every node — the chaos-serving configuration.
	Faults *faults.Config

	// Conform attaches the per-instance conformance monitor: every
	// halted instance is checked against the paper's agreement and
	// validity predicates and tallied into /v1/status.
	Conform bool

	// ProposeTimeout bounds how long a synchronous request blocks — an
	// instance wait on the halt, a KV CAS on the first decision — before
	// answering 504 (default 30s). The instance keeps running; a timed-out
	// CAS can still commit.
	ProposeTimeout time.Duration

	// Metrics receives the server's and engine's instruments; nil uses
	// obs.Default.
	Metrics *obs.Registry

	// TraceSample is the head-sampling rate for deep request traces in
	// [0,1]: 0 defaults to 0.01 (1%), negative disables sampling entirely,
	// >= 1 traces every request. Sampling is deterministic (every
	// round(1/rate)-th request); exemplars are retained regardless.
	TraceSample float64
	// TraceRecent caps the ring of recent sampled traces (default 256).
	TraceRecent int
	// TraceSlowest caps the slowest-request exemplars kept per route
	// (default 8).
	TraceSlowest int
}

// Server is the consensus-serving daemon: it owns the live engine, the
// instance registry and the KV chain store, and answers the HTTP API.
type Server struct {
	cfg Config
	eng *runtime.Engine
	reg *obs.Registry

	insts  *instanceRegistry
	kv     *kvStore
	mon    *Monitor
	traces *traceStore

	mux      *http.ServeMux
	draining atomic.Bool
	start    time.Time

	requests     map[string]*obs.Counter // by method: GET, HEAD, POST, "other"
	casOK        *obs.Counter
	casConflicts *obs.Counter
	drained      *obs.Counter
}

// maxBody caps request bodies in bytes.
const maxBody = 1 << 20

// New starts the engine and builds the server. Callers serve s.Handler()
// however they like (http.Server, in-process transport in tests) and must
// Shutdown or Close it.
func New(cfg Config) (*Server, error) {
	if cfg.Algorithm == nil {
		cfg.Algorithm = consensus.COptFloodSetWS{}
	}
	if cfg.ProposeTimeout <= 0 {
		cfg.ProposeTimeout = 30 * time.Second
	}
	if cfg.WaitBound <= 0 {
		cfg.WaitBound = 2 * time.Second
	}
	switch {
	case cfg.TraceSample == 0:
		cfg.TraceSample = 0.01
	case cfg.TraceSample < 0:
		cfg.TraceSample = 0
	case cfg.TraceSample > 1:
		cfg.TraceSample = 1
	}
	if cfg.TraceRecent <= 0 {
		cfg.TraceRecent = 256
	}
	if cfg.TraceSlowest <= 0 {
		cfg.TraceSlowest = 8
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		insts:        newInstanceRegistry(),
		start:        time.Now(),
		casOK:        reg.Counter(MetricServeCASOK),
		casConflicts: reg.Counter(MetricServeCASConflicts),
		drained:      reg.Counter(MetricServeDrained),
		requests:     make(map[string]*obs.Counter),
	}
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, "other"} {
		s.requests[m] = reg.Counter(obs.Label(MetricServeRequests, "method", m))
	}
	s.traces = newTraceStore(cfg.TraceSample, cfg.TraceRecent, cfg.TraceSlowest)
	s.kv = newKVStore(s)
	if cfg.Conform {
		s.mon = &Monitor{}
	}
	eng, err := runtime.StartEngine(cfg.Algorithm, runtime.EngineConfig{
		N: cfg.N, T: cfg.T,
		Groups:            cfg.Groups,
		HeartbeatPeriod:   cfg.HeartbeatPeriod,
		SuspectTimeout:    cfg.SuspectTimeout,
		Detector:          cfg.Detector,
		MaxRounds:         cfg.MaxRounds,
		WaitBound:         cfg.WaitBound,
		Faults:            cfg.Faults,
		Metrics:           reg,
		OnInstanceDecided: s.instanceDecided,
		OnInstanceDone:    s.instanceDone,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.buildMux()
	return s, nil
}

// instanceDecided is the engine's first-decision callback and the serving
// path's commit point: a KV flight riding the instance lands its version and
// answers its client here. Uniform agreement makes the first decision of any
// node the instance's only possible one, so nothing the tail does can change
// it. Like instanceDone it runs on a shard-worker goroutine — everything
// here is a short critical section.
func (s *Server) instanceDecided(inst uint64, v model.Value, round int) {
	if rec := s.insts.get(inst); rec != nil && rec.flight != nil {
		s.kv.commit(rec.flight, inst, v, round)
	}
}

// instanceDone is the engine's halt callback: feed the conformance monitor
// the whole per-node outcome, and settle any KV flight riding the instance —
// release it if nobody decided.
func (s *Server) instanceDone(inst uint64, out runtime.InstanceOutcome) {
	rec := s.insts.get(inst)
	if rec == nil {
		return
	}
	if s.mon != nil {
		s.mon.Note(inst, rec.proposals, out)
	}
	if rec.flight != nil {
		s.kv.settle(rec.flight, out)
	}
}

// Engine exposes the underlying live engine (status, tests).
func (s *Server) Engine() *runtime.Engine { return s.eng }

// Monitor returns the attached conformance monitor (nil unless
// Config.Conform).
func (s *Server) Monitor() *Monitor { return s.mon }

// Shutdown drains the server: new proposals answer 503 immediately,
// in-flight instances run to their decisions, then the engine tears down.
// Returns ctx.Err() if the deadline passes first (teardown continues in
// the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.eng.Drain()
	done := make(chan struct{})
	go func() {
		_ = s.eng.Close()
		close(done)
	}()
	select {
	case <-done:
		return s.eng.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}

// open admits one instance through the engine with the given per-node
// proposals, registering it before the engine's callbacks can race past.
func (s *Server) open(proposals []model.Value, fl *kvFlight, events obs.Sink) (*instRecord, error) {
	if s.draining.Load() {
		s.drained.Inc()
		return nil, runtime.ErrEngineDraining
	}
	return s.insts.open(s.eng, proposals, fl, events)
}

// --- HTTP surface ---

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/propose", s.handlePropose)
	mux.HandleFunc("GET /v1/instance/{id}", s.handleInstance)
	mux.HandleFunc("POST /v1/kv/{key}/cas", s.handleCAS)
	mux.HandleFunc("GET /v1/kv/{key}", s.handleGet)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /v1/debug/trace/{id}", s.handleDebugTrace)
	mux.HandleFunc("GET /v1/debug/keys", s.handleDebugKeys)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheus(w, s.reg.Snapshot())
	})
	s.mux = mux
}

// routeOf classifies a request into its endpoint label — the cardinality
// axis for per-endpoint metrics and exemplar rings. Classification is by
// path shape, not mux pattern, so it needs no net/http support.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/propose":
		return "propose"
	case strings.HasPrefix(p, "/v1/instance/"):
		return "instance"
	case strings.HasPrefix(p, "/v1/kv/") && strings.HasSuffix(p, "/cas"):
		return "kv-cas"
	case strings.HasPrefix(p, "/v1/kv/"):
		return "kv-get"
	case p == "/v1/status":
		return "status"
	case strings.HasPrefix(p, "/v1/debug/"):
		return "debug"
	case p == "/healthz":
		return "healthz"
	case p == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// kvKeyOf extracts the key from a /v1/kv/ path for trace labeling.
func kvKeyOf(p string) string {
	return strings.TrimSuffix(strings.TrimPrefix(p, "/v1/kv/"), "/cas")
}

// statusWriter captures the response status for metrics and traces.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the server's HTTP handler. Every /v1/ response is JSON —
// including the mux's own 404/405 verdicts, which jsonErrWriter rewrites so
// clients never parse a plain-text error page. The wrapper is also the
// observability middleware: it assigns the request id (echoed in the
// X-SSFD-Request header), runs the sampling verdict, carries the phase
// tracker through the context, and files the finished record into the
// trace store and the per-route metrics.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeOf(r)
		id, sampled := s.traces.begin()
		tk := &reqTracker{id: id, route: route, method: r.Method, start: start, sampled: sampled}
		tk.markAt(tracing.KindHandler, start)
		if route == "kv-cas" || route == "kv-get" {
			tk.key = kvKeyOf(r.URL.Path)
		}
		w.Header().Set("X-SSFD-Request", id)
		c, ok := s.requests[r.Method]
		if !ok { // a made-up method must not grow the registry
			c = s.requests["other"]
		}
		c.Inc()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(&jsonErrWriter{ResponseWriter: sw},
			r.WithContext(withTracker(r.Context(), tk)))
		rec := tk.finish(s, time.Now(), sw.code)
		s.traces.add(rec)
		s.reg.Counter(obs.Label(obs.Label(MetricHTTPRequests, "route", route),
			"code", strconv.Itoa(sw.code))).Inc()
		s.reg.Histogram(obs.Label(MetricHTTPDuration, "route", route),
			obs.DefaultDurationBuckets).Observe(rec.TotalNS)
		if sampled {
			s.reg.Counter(MetricHTTPSampled).Inc()
		}
	})
}

// jsonErrWriter rewrites the mux's built-in plain-text 404/405 responses
// into the API's JSON error shape. The API's own JSON errors pass through
// untouched — they set application/json before writing the status.
type jsonErrWriter struct {
	http.ResponseWriter
	suppress bool
}

func (w *jsonErrWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed ||
		code == http.StatusMovedPermanently) &&
		w.Header().Get("Content-Type") != "application/json" {
		w.suppress = true
		msg := "no such route"
		switch code {
		case http.StatusMethodNotAllowed:
			msg = "method not allowed"
		case http.StatusMovedPermanently:
			// The mux canonicalized the path; Location carries the target.
			msg = "moved: " + w.Header().Get("Location")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(code)
		_ = json.NewEncoder(w.ResponseWriter).Encode(errorBody{Error: msg})
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonErrWriter) Write(b []byte) (int, error) {
	if w.suppress {
		return len(b), nil // swallow the mux's text body; JSON already sent
	}
	return w.ResponseWriter.Write(b)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a JSON request body into v, mapping oversized bodies
// to 413 and malformed JSON to 400. Returns false after writing the error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// ProposeRequest opens a raw consensus instance: either one value every
// node proposes, or a per-node proposal vector of length n.
type ProposeRequest struct {
	Value  *int64  `json:"value,omitempty"`
	Values []int64 `json:"values,omitempty"`
}

// ProposeResponse returns the opened instance's id.
type ProposeResponse struct {
	Instance uint64 `json:"instance"`
}

func (s *Server) handlePropose(w http.ResponseWriter, r *http.Request) {
	var req ProposeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	n := s.eng.N()
	proposals := make([]model.Value, n)
	switch {
	case req.Value != nil && req.Values != nil:
		writeError(w, http.StatusBadRequest, `give "value" or "values", not both`)
		return
	case req.Value != nil:
		for i := range proposals {
			proposals[i] = model.Value(*req.Value)
		}
	case req.Values != nil:
		if len(req.Values) != n {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf(`"values" must list %d proposals, got %d`, n, len(req.Values)))
			return
		}
		for i, v := range req.Values {
			proposals[i] = model.Value(v)
		}
	default:
		writeError(w, http.StatusBadRequest, `need "value" or "values"`)
		return
	}
	rec, err := s.open(proposals, nil, nil)
	if err != nil {
		if errors.Is(err, runtime.ErrEngineDraining) {
			writeError(w, http.StatusServiceUnavailable, "draining: not admitting proposals")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ProposeResponse{Instance: rec.id})
}

// InstanceStatus is one instance's externally visible state, reported once
// its last automaton has halted. DecideRound is the round of the first
// decision (the paper's latency measure, and where a KV write riding the
// instance was answered); HaltRound is the last round any node completed.
type InstanceStatus struct {
	Instance    uint64  `json:"instance"`
	Done        bool    `json:"done"`
	Agreement   string  `json:"agreement,omitempty"`
	Value       *int64  `json:"value,omitempty"`
	Decided     []bool  `json:"decided,omitempty"`
	Decisions   []int64 `json:"decisions,omitempty"`
	DecideRound int     `json:"decide_round,omitempty"`
	HaltRound   int     `json:"halt_round,omitempty"`
	Waits       int     `json:"wait_timeouts,omitempty"`
	Error       string  `json:"error,omitempty"`
}

func statusOf(id uint64, out runtime.InstanceOutcome, done bool) InstanceStatus {
	st := InstanceStatus{Instance: id, Done: done}
	if !done {
		return st
	}
	if out.Err != nil {
		st.Error = out.Err.Error()
	}
	v, verdict := out.Agreement()
	st.Agreement = verdict.String()
	if verdict == runtime.AgreementReached {
		vv := int64(v)
		st.Value = &vv
	}
	st.Decided = out.Decided
	st.Decisions = make([]int64, len(out.Decisions))
	for i, d := range out.Decisions {
		st.Decisions[i] = int64(d)
	}
	for _, nd := range out.Nodes {
		if d := int(nd.DecidedAt); d > 0 && (st.DecideRound == 0 || d < st.DecideRound) {
			st.DecideRound = d
		}
		st.HaltRound = max(st.HaltRound, int(nd.Rounds))
	}
	st.Waits = out.WaitTimeouts
	return st
}

func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad instance id")
		return
	}
	rec := s.insts.get(id)
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such instance")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ProposeTimeout)
		defer cancel()
		tk := trackerFrom(r.Context())
		tk.mark(tracing.KindConsensus)
		select {
		case <-rec.handle.Done():
			tk.mark(tracing.KindHandler)
		case <-ctx.Done():
			tk.mark(tracing.KindHandler)
			writeError(w, http.StatusGatewayTimeout, "instance still running")
			return
		}
	}
	out, done := rec.handle.Outcome()
	writeJSON(w, http.StatusOK, statusOf(id, out, done))
}

// CASRequest is the check-and-set body: Old nil asserts "key absent".
type CASRequest struct {
	Old *int64 `json:"old"`
	New int64  `json:"new"`
}

// CASResponse reports the verdict. On success Version/Value name the
// committed version; on conflict (HTTP 409) they name the head the CAS
// lost to. DecideRound is the round of the instance's first decision — the
// one the version was committed and this answer sent at, with the instance
// still running its tail.
type CASResponse struct {
	OK          bool   `json:"ok"`
	Key         string `json:"key"`
	Version     int    `json:"version,omitempty"`
	Value       int64  `json:"value,omitempty"`
	Instance    uint64 `json:"instance,omitempty"`
	DecideRound int    `json:"decide_round,omitempty"`
}

func (s *Server) handleCAS(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "empty key")
		return
	}
	var req CASRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ProposeTimeout)
	defer cancel()
	ver, err := s.kv.CAS(ctx, key, req.Old, model.Value(req.New))
	switch {
	case err == nil:
		s.casOK.Inc()
		writeJSON(w, http.StatusOK, CASResponse{
			OK: true, Key: key, Version: ver.Version, Value: int64(ver.Value), Instance: ver.Instance,
			DecideRound: ver.DecideRound,
		})
	case errors.Is(err, errCASConflict):
		s.casConflicts.Inc()
		resp := CASResponse{OK: false, Key: key}
		if ver != nil {
			resp.Version = ver.Version
			resp.Value = int64(ver.Value)
			resp.Instance = ver.Instance
			resp.DecideRound = ver.DecideRound
		}
		writeJSON(w, http.StatusConflict, resp)
	case errors.Is(err, runtime.ErrEngineDraining):
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting proposals")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, "consensus still running; retry")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// DefaultHistoryLimit caps a ?history=1 page when no limit is given —
// chains are unbounded, so the full-chain response must be opt-in via
// pagination, never the default.
const DefaultHistoryLimit = 256

// KVGetResponse answers GET /v1/kv/{key}: the head version, plus — with
// ?history=1 — one page of the chain. HistoryTotal is the full chain
// length; NextFrom, when set, is the ?from= cursor for the next page.
type KVGetResponse struct {
	Key          string      `json:"key"`
	Version      int         `json:"version"`
	Value        int64       `json:"value"`
	History      []KVVersion `json:"history,omitempty"`
	HistoryTotal int         `json:"history_total,omitempty"`
	NextFrom     int         `json:"next_from,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	q := r.URL.Query()
	if q.Get("history") == "" {
		head := s.kv.Get(key)
		if head == nil {
			writeError(w, http.StatusNotFound, "no such key")
			return
		}
		writeJSON(w, http.StatusOK, KVGetResponse{
			Key: key, Version: head.Version, Value: int64(head.Value),
		})
		return
	}
	limit := DefaultHistoryLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit: want a positive integer")
			return
		}
		limit = n
	}
	from := 1
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad from: want a positive version number")
			return
		}
		from = n
	}
	head, page, total := s.kv.History(key, from, limit)
	if head == nil {
		writeError(w, http.StatusNotFound, "no such key")
		return
	}
	resp := KVGetResponse{
		Key: key, Version: head.Version, Value: int64(head.Value),
		History: page, HistoryTotal: total,
	}
	if next := from + len(page); len(page) > 0 && next <= total {
		resp.NextFrom = next
	}
	writeJSON(w, http.StatusOK, resp)
}

// DebugKeysResponse answers GET /v1/debug/keys: the hot-key table, top-n
// by CAS attempts.
type DebugKeysResponse struct {
	Keys []KeyStats `json:"keys"`
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traces.debug())
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.traces.get(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such trace (evicted or never sampled)")
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		if rec.Trace == nil {
			writeError(w, http.StatusNotFound, "trace has no span tree (unsampled exemplar)")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rec.Trace.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleDebugKeys(w http.ResponseWriter, r *http.Request) {
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "bad n: want a positive integer")
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, DebugKeysResponse{Keys: s.kv.HotKeys(n)})
}

// StatusReport answers GET /v1/status: the operator's drain/backlog
// at-a-glance view — server uptime, live engine stats (in-flight,
// mailbox backlog, cost counters), KV shape, sampling configuration and
// tallies, plus the conformance summary when the monitor is attached.
type StatusReport struct {
	Draining bool                `json:"draining"`
	UptimeNS int64               `json:"uptime_ns"`
	Engine   runtime.EngineStats `json:"engine"`
	KV       KVStats             `json:"kv"`
	Sampling SamplingStats       `json:"sampling"`
	Conform  *ConformSummary     `json:"conform,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// Status snapshots the server (the JSON of GET /v1/status).
func (s *Server) Status() StatusReport {
	rep := StatusReport{
		Draining: s.draining.Load(),
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Engine:   s.eng.Stats(),
		KV:       s.kv.Stats(),
		Sampling: s.traces.stats(),
	}
	if s.mon != nil {
		sum := s.mon.Summary()
		rep.Conform = &sum
	}
	return rep
}
