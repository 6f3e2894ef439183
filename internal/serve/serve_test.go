package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// inprocTransport serves requests straight through the handler — no
// sockets, no listener, no file-descriptor ceiling. It is how the tests
// run a thousand concurrent clients on one CPU.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// newTestServer brings up a small live cluster with the conformance
// monitor attached and returns an in-process client against it.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *Client) {
	t.Helper()
	cfg := Config{
		N: 3, T: 1,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		WaitBound:       2 * time.Second,
		ProposeTimeout:  10 * time.Second,
		Conform:         true,
		Metrics:         obs.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := &Client{
		BaseURL: "http://serve.test",
		HTTP:    &http.Client{Transport: inprocTransport{h: srv.Handler()}},
	}
	return srv, client
}

// quiesce waits, bounded, until every opened instance has halted and its halt
// callback has run. A CAS is answered at its instance's first decision, so
// right after an answer the engine's completion stats and the monitor's tally
// still trail it by the instance's tail. The engine counts an instance
// complete just before it runs the halt callback, hence the second condition:
// the monitor has checked every instance opened.
func quiesce(t *testing.T, srv *Server) StatusReport {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := srv.Status()
		if st.Engine.InFlight == 0 && (st.Conform == nil || st.Conform.Checked == st.Engine.Opened) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never went quiet: %+v conform %+v", st.Engine, st.Conform)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProposeAndInstance(t *testing.T) {
	_, client := newTestServer(t, nil)
	ctx := context.Background()

	id, err := client.Propose(ctx, 42)
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	st, err := client.Instance(ctx, id, true)
	if err != nil {
		t.Fatalf("Instance(wait): %v", err)
	}
	if !st.Done || st.Agreement != "reached" || st.Value == nil || *st.Value != 42 {
		t.Fatalf("instance status = %+v, want decided 42", st)
	}
	for i, d := range st.Decided {
		if !d || st.Decisions[i] != 42 {
			t.Errorf("node %d: decided=%v decision=%d, want 42", i+1, d, st.Decisions[i])
		}
	}

	// Per-node proposal vectors: the decision is one of the proposals.
	id, err = client.ProposeValues(ctx, []int64{7, 8, 9})
	if err != nil {
		t.Fatalf("ProposeValues: %v", err)
	}
	st, err = client.Instance(ctx, id, true)
	if err != nil {
		t.Fatalf("Instance(wait): %v", err)
	}
	if st.Agreement != "reached" || st.Value == nil {
		t.Fatalf("vector instance: %+v", st)
	}
	if *st.Value != 7 && *st.Value != 8 && *st.Value != 9 {
		t.Errorf("decided %d, want one of the proposals", *st.Value)
	}
}

func TestProposeValidation(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h := srv.Handler()

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"no value", `{}`, http.StatusBadRequest},
		{"both forms", `{"value":1,"values":[1,2,3]}`, http.StatusBadRequest},
		{"wrong arity", `{"values":[1,2]}`, http.StatusBadRequest},
		{"unknown field", `{"valu":1}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"ok", `{"value":5}`, http.StatusOK},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/propose", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.wantCode {
			t.Errorf("%s: code %d, want %d (body %s)", tc.name, rec.Code, tc.wantCode, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s: response not JSON: %s", tc.name, rec.Body)
		}
	}
}

func TestRoutingErrors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h := srv.Handler()

	cases := []struct {
		method, path string
		wantCode     int
	}{
		{http.MethodGet, "/nope", http.StatusNotFound},
		{http.MethodGet, "/v1/propose", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/instance/notanumber", http.StatusBadRequest},
		{http.MethodGet, "/v1/instance/999999", http.StatusNotFound},
		{http.MethodGet, "/v1/kv/ghost", http.StatusNotFound},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.wantCode {
			t.Errorf("%s %s: code %d, want %d", tc.method, tc.path, rec.Code, tc.wantCode)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s %s: response not JSON: %s", tc.method, tc.path, rec.Body)
		}
	}
}

// TestBodyTooLarge: a body of exactly 1 MiB is read, one byte more is a 413.
func TestBodyTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h := srv.Handler()
	const value = `{"value":1}`
	for _, tc := range []struct {
		size int
		code int
	}{{1 << 20, http.StatusOK}, {1<<20 + 1, http.StatusRequestEntityTooLarge}} {
		body := strings.Repeat(" ", tc.size-len(value)) + value
		req := httptest.NewRequest(http.MethodPost, "/v1/propose", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("%d-byte body: code %d, want %d (body %s)", tc.size, rec.Code, tc.code, rec.Body)
		}
	}
}

// TestRequestMethodsBounded: made-up methods share one "other" series, so
// however many a client invents, the requests family keeps at most four.
func TestRequestMethodsBounded(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h, reg := srv.Handler(), srv.reg
	for i := 0; i < 50; i++ {
		req := httptest.NewRequest(fmt.Sprintf("M%02d", i), "/healthz", nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	series := 0
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, MetricServeRequests+"{") {
			series++
		}
	}
	if series > 4 {
		t.Errorf("50 distinct methods left %d %s series, want at most 4", series, MetricServeRequests)
	}
	if got := reg.Counter(obs.Label(MetricServeRequests, "method", "other")).Value(); got != 50 {
		t.Errorf("other-method requests = %d, want 50", got)
	}
}

func TestKVBasics(t *testing.T) {
	_, client := newTestServer(t, nil)
	ctx := context.Background()

	if _, err := client.Get(ctx, "a"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrKeyNotFound", err)
	}

	// Create, then advance the chain.
	resp, err := client.CAS(ctx, "a", nil, 10)
	if err != nil || !resp.OK || resp.Version != 1 {
		t.Fatalf("CAS(nil->10) = %+v, %v", resp, err)
	}
	old := int64(10)
	resp, err = client.CAS(ctx, "a", &old, 20)
	if err != nil || !resp.OK || resp.Version != 2 {
		t.Fatalf("CAS(10->20) = %+v, %v", resp, err)
	}

	// A stale CAS loses and learns the head.
	stale := int64(10)
	resp, err = client.CAS(ctx, "a", &stale, 99)
	if err != nil {
		t.Fatalf("stale CAS errored: %v", err)
	}
	if resp.OK || resp.Version != 2 || resp.Value != 20 {
		t.Fatalf("stale CAS = %+v, want conflict against (v2, 20)", resp)
	}

	head, err := client.Get(ctx, "a")
	if err != nil || head.Version != 2 || int64(head.Value) != 20 {
		t.Fatalf("Get = %+v, %v", head, err)
	}
	hist, err := client.History(ctx, "a")
	if err != nil || len(hist) != 2 {
		t.Fatalf("History = %+v, %v", hist, err)
	}
	if hist[0].Value != 10 || hist[1].Value != 20 {
		t.Fatalf("chain = %+v, want [10 20]", hist)
	}
	// Every version names the consensus instance that committed it.
	if hist[0].Instance == hist[1].Instance {
		t.Errorf("both versions claim instance %d", hist[0].Instance)
	}
}

func TestClientUpdateRetries(t *testing.T) {
	_, client := newTestServer(t, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Update(ctx, "ctr", func(cur *int64) int64 {
			if cur == nil {
				return 1
			}
			return *cur + 1
		}); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
	head, err := client.Get(ctx, "ctr")
	if err != nil || int64(head.Value) != 3 {
		t.Fatalf("counter = %+v, %v; want 3", head, err)
	}
}

func TestStatusAndObs(t *testing.T) {
	srv, client := newTestServer(t, nil)
	ctx := context.Background()
	if _, err := client.CAS(ctx, "s", nil, 1); err != nil {
		t.Fatal(err)
	}
	quiesce(t, srv)
	rep, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if rep.Engine.N != 3 || rep.Engine.Completed < 1 {
		t.Errorf("engine stats = %+v", rep.Engine)
	}
	if rep.KV.Keys != 1 || rep.KV.Versions != 1 {
		t.Errorf("kv stats = %+v", rep.KV)
	}
	if rep.Conform == nil || !rep.Conform.Clean || rep.Conform.Checked < 1 {
		t.Errorf("conform = %+v, want clean with checks", rep.Conform)
	}
	if rep.Engine.AgreementViolated != 0 {
		t.Errorf("agreement violations: %d", rep.Engine.AgreementViolated)
	}

	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ssfd_") {
		t.Errorf("/metrics = %d: %.80s", rec.Code, rec.Body)
	}
}

func TestDrainingRefusesProposals(t *testing.T) {
	srv, client := newTestServer(t, nil)
	ctx := context.Background()
	if _, err := client.Propose(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := client.Propose(ctx, 2); !errors.Is(err, ErrDraining) {
		t.Fatalf("Propose while draining = %v, want ErrDraining", err)
	}
	if _, err := client.CAS(ctx, "k", nil, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("CAS while draining = %v, want ErrDraining", err)
	}
	// Reads and status stay answerable after drain.
	if _, err := client.Status(ctx); err != nil {
		t.Fatalf("Status after drain: %v", err)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
}

// TestEngineAccessors pins the small status surface the cmds rely on.
func TestEngineAccessors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if srv.Engine() == nil || srv.Engine().N() != 3 {
		t.Fatal("Engine() accessor broken")
	}
	if srv.Monitor() == nil {
		t.Fatal("Monitor() nil with Conform set")
	}
	if got := srv.Engine().Algorithm().Name(); got != "C_OptFloodSetWS" {
		t.Errorf("default algorithm = %q", got)
	}
	if err := srv.Engine().Err(); err != nil {
		t.Errorf("engine error: %v", err)
	}
	st := srv.Engine().Stats()
	if st.Detector == "" || st.Groups < 1 {
		t.Errorf("engine stats = %+v", st)
	}
}

// TestInstanceOutcomeAgreement pins the outcome helper the serving layer
// leans on for its verdicts.
func TestInstanceOutcomeAgreement(t *testing.T) {
	out := runtime.InstanceOutcome{
		N: 3, Decided: []bool{true, true, true}, Decisions: []model.Value{5, 5, 5},
	}
	if _, st := out.Agreement(); st != runtime.AgreementReached {
		t.Errorf("verdict %v, want reached", st)
	}
}
