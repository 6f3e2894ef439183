package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	stdruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tracing"
)

// TestRequestTraceExactTiling is the tentpole invariant end-to-end: with
// every request sampled, a CAS driven through the HTTP surface yields a
// retrievable trace whose phase attribution sums exactly to the measured
// wall-clock total, whose consensus slice is backed by a span tree that
// passes the PR 5 CheckSums discipline, and whose instance id matches the
// committed version's.
func TestRequestTraceExactTiling(t *testing.T) {
	_, client := newTestServer(t, func(c *Config) { c.TraceSample = 1 })
	ctx := context.Background()

	resp, err := client.CAS(ctx, "tile", nil, 42)
	if err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if !resp.OK {
		t.Fatalf("CAS lost with no competitor: %+v", resp)
	}

	dt, err := client.DebugTraces(ctx)
	if err != nil {
		t.Fatalf("DebugTraces: %v", err)
	}
	if dt.Sampling.Rate != 1 || dt.Sampling.Sampled == 0 {
		t.Fatalf("sampling stats = %+v, want rate 1 with sampled requests", dt.Sampling)
	}
	var id string
	for _, rec := range dt.Recent {
		if rec.Route == "kv-cas" {
			id = rec.ID
			break
		}
	}
	if id == "" {
		t.Fatalf("no kv-cas trace in recent: %+v", dt.Recent)
	}

	rec, err := client.DebugTrace(ctx, id)
	if err != nil {
		t.Fatalf("DebugTrace(%s): %v", id, err)
	}
	if !rec.Sampled || rec.Trace == nil {
		t.Fatalf("trace %s: sampled=%v trace=%v, want a deep trace", id, rec.Sampled, rec.Trace != nil)
	}
	if rec.Key != "tile" {
		t.Errorf("trace key = %q, want tile", rec.Key)
	}
	if rec.Instance == nil || *rec.Instance != resp.Instance {
		t.Errorf("trace instance = %v, want %d", rec.Instance, resp.Instance)
	}
	if got := rec.Phases.Total(); got != rec.TotalNS {
		t.Errorf("phases sum %d != total %d", got, rec.TotalNS)
	}
	if rec.Phases.ConsensusNS <= 0 {
		t.Errorf("consensus slice = %d, want > 0 for a committed CAS", rec.Phases.ConsensusNS)
	}
	if err := VerifyRequestTrace(rec); err != nil {
		t.Errorf("VerifyRequestTrace: %v", err)
	}

	// The instance slice of the span tree reconciles against the PR 5
	// attribution: per-proc components tile each proc's decision latency.
	attr := tracing.Attribute(rec.Trace)
	if err := attr.CheckSums(); err != nil {
		t.Errorf("instance attribution CheckSums: %v", err)
	}
	if len(attr.Procs) == 0 {
		t.Error("instance attribution has no per-proc rows")
	}
}

// TestRequestTraceChromeExport: the Perfetto view of a live trace
// round-trips through the same reader the offline tooling uses.
func TestRequestTraceChromeExport(t *testing.T) {
	srv, client := newTestServer(t, func(c *Config) { c.TraceSample = 1 })
	ctx := context.Background()
	if _, err := client.CAS(ctx, "chrome", nil, 7); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	dt, err := client.DebugTraces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for _, rec := range dt.Recent {
		if rec.Route == "kv-cas" {
			id = rec.ID
		}
	}
	if id == "" {
		t.Fatal("no kv-cas trace recorded")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/debug/trace/"+id+"?format=chrome", nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("chrome export: HTTP %d: %s", rw.Code, rw.Body.String())
	}
	tr, err := tracing.ReadChrome(rw.Body)
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("chrome round-trip lost every span")
	}
}

// TestRequestIDHeader: every response carries the request id the debug
// endpoints key on.
func TestRequestIDHeader(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	if id := rw.Header().Get("X-SSFD-Request"); !strings.HasPrefix(id, "r") {
		t.Fatalf("X-SSFD-Request = %q, want an r-prefixed id", id)
	}
}

// TestTraceStoreSampling pins the deterministic stride: rate 0.5 samples
// every 2nd request starting with the first; rate 0 never samples but the
// slowest exemplars are retained regardless.
func TestTraceStoreSampling(t *testing.T) {
	ts := newTraceStore(0.5, 8, 2)
	var verdicts []bool
	for i := 0; i < 6; i++ {
		_, sampled := ts.begin()
		verdicts = append(verdicts, sampled)
	}
	want := []bool{true, false, true, false, true, false}
	for i := range want {
		if verdicts[i] != want[i] {
			t.Fatalf("stride-2 verdicts = %v, want %v", verdicts, want)
		}
	}

	off := newTraceStore(0, 8, 2)
	for i := 0; i < 5; i++ {
		id, sampled := off.begin()
		if sampled {
			t.Fatalf("rate 0 sampled request %s", id)
		}
		off.add(&RequestTrace{ID: id, Route: "kv-cas", TotalNS: int64(100 - i)})
	}
	dbg := off.debug()
	if len(dbg.Recent) != 0 {
		t.Fatalf("rate 0 filed %d recent traces, want 0", len(dbg.Recent))
	}
	slow := dbg.Slowest["kv-cas"]
	if len(slow) != 2 || slow[0].TotalNS != 100 || slow[1].TotalNS != 99 {
		t.Fatalf("slowest exemplars = %+v, want the two slowest regardless of sampling", slow)
	}
	if off.get(slow[0].ID) == nil {
		t.Fatal("exemplar not retrievable by id")
	}
}

// TestTraceStoreRecentRing: the recent ring evicts oldest-first and lists
// newest-first.
func TestTraceStoreRecentRing(t *testing.T) {
	ts := newTraceStore(1, 3, 1)
	for i := 0; i < 5; i++ {
		id, sampled := ts.begin()
		if !sampled {
			t.Fatalf("rate 1 skipped request %d", i)
		}
		ts.add(&RequestTrace{ID: id, Route: "status", Sampled: true, TotalNS: int64(i)})
	}
	dbg := ts.debug()
	if len(dbg.Recent) != 3 {
		t.Fatalf("recent ring holds %d, want 3", len(dbg.Recent))
	}
	for i, want := range []string{"r00000005", "r00000004", "r00000003"} {
		if dbg.Recent[i].ID != want {
			t.Fatalf("recent[%d] = %s, want %s (newest first)", i, dbg.Recent[i].ID, want)
		}
	}
	if ts.get("r00000001") != nil {
		t.Fatal("evicted trace still retrievable")
	}
}

// TestHistoryPagination is the long-chain regression: a key with more
// versions than the default cap pages correctly, the client reassembles
// the full chain, and malformed cursors answer 400.
func TestHistoryPagination(t *testing.T) {
	srv, client := newTestServer(t, nil)
	const chainLen = DefaultHistoryLimit*2 + 37

	// Seed the chain directly — driving 549 consensus instances through
	// HTTP would make this a throughput test, not a pagination test.
	k := &kvKey{}
	for i := 1; i <= chainLen; i++ {
		k.versions = append(k.versions, KVVersion{Version: i, Value: model.Value(i), Instance: uint64(i)})
	}
	srv.kv.mu.Lock()
	srv.kv.keys["long"] = k
	srv.kv.mu.Unlock()

	ctx := context.Background()

	// Default page: capped, with a cursor.
	var resp KVGetResponse
	code, err := client.do(ctx, http.MethodGet, "/v1/kv/long?history=1", nil, &resp)
	if err != nil || code != http.StatusOK {
		t.Fatalf("history page 1: code %d err %v", code, err)
	}
	if len(resp.History) != DefaultHistoryLimit {
		t.Fatalf("default page = %d versions, want %d", len(resp.History), DefaultHistoryLimit)
	}
	if resp.HistoryTotal != chainLen || resp.NextFrom != DefaultHistoryLimit+1 {
		t.Fatalf("page 1 total=%d next=%d, want total=%d next=%d",
			resp.HistoryTotal, resp.NextFrom, chainLen, DefaultHistoryLimit+1)
	}

	// The client loops the cursor to the full chain, in order.
	hist, err := client.History(ctx, "long")
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(hist) != chainLen {
		t.Fatalf("reassembled chain = %d versions, want %d", len(hist), chainLen)
	}
	for i, v := range hist {
		if v.Version != i+1 {
			t.Fatalf("chain[%d].Version = %d, want %d", i, v.Version, i+1)
		}
	}

	// Explicit window.
	code, err = client.do(ctx, http.MethodGet, "/v1/kv/long?history=1&from=100&limit=5", nil, &resp)
	if err != nil || code != http.StatusOK {
		t.Fatalf("window: code %d err %v", code, err)
	}
	if len(resp.History) != 5 || resp.History[0].Version != 100 || resp.NextFrom != 105 {
		t.Fatalf("window = %d versions from %d next %d, want 5 from 100 next 105",
			len(resp.History), resp.History[0].Version, resp.NextFrom)
	}

	// A limit that would overflow from-1+limit answers the rest of the chain.
	resp = KVGetResponse{}
	code, err = client.do(ctx, http.MethodGet,
		fmt.Sprintf("/v1/kv/long?history=1&from=2&limit=%d", math.MaxInt64), nil, &resp)
	if err != nil || code != http.StatusOK {
		t.Fatalf("huge limit: code %d err %v", code, err)
	}
	if len(resp.History) != chainLen-1 || resp.History[0].Version != 2 ||
		resp.History[len(resp.History)-1].Version != chainLen || resp.NextFrom != 0 {
		t.Fatalf("huge limit = %d versions next %d, want versions 2..%d with no cursor",
			len(resp.History), resp.NextFrom, chainLen)
	}

	// A cursor past the end answers an empty page with no next cursor.
	resp = KVGetResponse{}
	code, err = client.do(ctx, http.MethodGet,
		fmt.Sprintf("/v1/kv/long?history=1&from=%d", chainLen+1), nil, &resp)
	if err != nil || code != http.StatusOK {
		t.Fatalf("past-end: code %d err %v", code, err)
	}
	if len(resp.History) != 0 || resp.NextFrom != 0 {
		t.Fatalf("past-end page = %d versions next %d, want empty with no cursor", len(resp.History), resp.NextFrom)
	}

	// Malformed cursors are 400s, not silent defaults.
	for _, q := range []string{"limit=0", "limit=x", "from=0", "from=-1"} {
		code, _ = client.do(ctx, http.MethodGet, "/v1/kv/long?history=1&"+q, nil, nil)
		if code != http.StatusBadRequest {
			t.Errorf("?%s: HTTP %d, want 400", q, code)
		}
	}
}

// TestDebugKeys: the hot-key table counts attempts and conflicts per key
// and sorts by traffic.
func TestDebugKeys(t *testing.T) {
	_, client := newTestServer(t, nil)
	ctx := context.Background()

	if _, err := client.CAS(ctx, "hot", nil, 1); err != nil {
		t.Fatal(err)
	}
	// A conflicting CAS: asserts absent against a present head.
	resp, err := client.CAS(ctx, "hot", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("conflicting CAS won")
	}
	if _, err := client.CAS(ctx, "cold", nil, 1); err != nil {
		t.Fatal(err)
	}

	keys, err := client.DebugKeys(ctx, 0)
	if err != nil {
		t.Fatalf("DebugKeys: %v", err)
	}
	if len(keys) != 2 || keys[0].Key != "hot" {
		t.Fatalf("hot-key table = %+v, want hot first of 2", keys)
	}
	hot := keys[0]
	if hot.Attempts != 2 || hot.Conflicts != 1 || hot.Versions != 1 {
		t.Fatalf("hot row = %+v, want attempts 2, conflicts 1, versions 1", hot)
	}
	if keys, err = client.DebugKeys(ctx, 1); err != nil || len(keys) != 1 {
		t.Fatalf("DebugKeys(1) = %d rows err %v, want the top 1", len(keys), err)
	}
}

// TestStatusSampling: /v1/status carries uptime and the sampling
// configuration — the operator's drain/backlog glance.
func TestStatusSampling(t *testing.T) {
	_, client := newTestServer(t, func(c *Config) { c.TraceSample = 0.25 })
	st, err := client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UptimeNS <= 0 {
		t.Errorf("UptimeNS = %d, want > 0", st.UptimeNS)
	}
	if st.Sampling.Rate != 0.25 || st.Sampling.RecentCap != 256 || st.Sampling.SlowestPerRoute != 8 {
		t.Errorf("sampling = %+v, want rate 0.25 with default caps", st.Sampling)
	}
	if st.Sampling.Requests == 0 {
		t.Error("status request itself not counted")
	}
}

// TestHTTPMetricsExposition pins the ssfd_http_* names on /metrics: the
// per-route/status counter, the per-route duration histogram and the
// sampled counter — renames break dashboards silently, so the names are
// contract.
func TestHTTPMetricsExposition(t *testing.T) {
	srv, client := newTestServer(t, func(c *Config) { c.TraceSample = 1 })
	ctx := context.Background()
	if _, err := client.CAS(ctx, "m", nil, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Status(ctx); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	body := rw.Body.String()
	for _, want := range []string{
		`ssfd_http_requests_total{route="kv-cas",code="200"}`,
		`ssfd_http_requests_total{route="status",code="200"}`,
		`ssfd_http_request_duration_ns_bucket{route="kv-cas",le="`,
		`ssfd_http_request_duration_ns_count{route="kv-cas"}`,
		`ssfd_http_sampled_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSamplerShutdownNoLeak hammers the sampler and exemplar rings from
// concurrent clients racing a Shutdown, then requires the goroutine count
// to return to baseline — the store is pure data, so nothing may linger.
// Run with -race this doubles as the sampler's data-race test.
func TestSamplerShutdownNoLeak(t *testing.T) {
	before := stdruntime.NumGoroutine()

	srv, err := New(Config{
		N: 3, T: 1,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		ProposeTimeout:  10 * time.Second,
		TraceSample:     1, // every request through the deep-trace path
		TraceRecent:     16,
		TraceSlowest:    2,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		BaseURL: "http://serve.test",
		HTTP:    &http.Client{Transport: inprocTransport{h: srv.Handler()}},
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("k%d", i%3)
				_, _ = client.CAS(ctx, key, nil, int64(c*100+i))
				_, _ = client.Get(ctx, key)
				_, _ = client.DebugTraces(ctx)
			}
		}(c)
	}
	// Shutdown races the load: late writes answer 503, in-flight ones
	// drain, and the debug endpoints stay readable throughout.
	time.Sleep(5 * time.Millisecond)
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	if _, err := client.DebugTraces(ctx); err != nil {
		t.Fatalf("DebugTraces after shutdown: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		stdruntime.GC()
		now := stdruntime.NumGoroutine()
		if now <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := stdruntime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d now=%d — leak\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRequestTraceSealedOnTimeout: a CAS answered 504 while its instance is
// still in flight (p3 is partitioned away, so every round waits out the
// suspicion timeout) still files a verifiable trace — the tracer is sealed
// when the record is built, its runtime spans end inside the consensus
// window, and the instance goes on emitting without touching the record.
func TestRequestTraceSealedOnTimeout(t *testing.T) {
	srv, client := newTestServer(t, func(c *Config) {
		c.TraceSample = 1
		c.Conform = false
		c.ProposeTimeout = 40 * time.Millisecond
		c.SuspectTimeout = 250 * time.Millisecond
		c.Faults = &faults.Config{
			Partitions: []faults.Partition{{Start: 0, End: time.Minute, Group: model.Singleton(3)}},
			Metrics:    obs.NewRegistry(),
		}
	})
	ctx := context.Background()
	if _, err := client.CAS(ctx, "slow", nil, 9); !errors.Is(err, ErrTimeout) {
		t.Fatalf("CAS = %v, want the 504 timeout", err)
	}
	dt, err := client.DebugTraces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var rec *RequestTrace
	for _, r := range dt.Recent {
		if r.Route == "kv-cas" && r.Status == http.StatusGatewayTimeout {
			if rec, err = client.DebugTrace(ctx, r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rec == nil || rec.Trace == nil || rec.Instance == nil {
		t.Fatalf("no deep trace filed for the timed-out CAS: %+v", rec)
	}
	if err := VerifyRequestTrace(rec); err != nil {
		t.Errorf("VerifyRequestTrace: %v", err)
	}
	if rec.Trace.Find(func(sp *tracing.Span) bool { return sp.Kind == tracing.KindSend && sp.Cat == tracing.CatRuntime }) == nil {
		t.Error("sealed trace carries no runtime span of the in-flight instance")
	}
	// The instance outlives the request; the filed record must not move.
	spans := len(rec.Trace.Spans)
	select {
	case <-srv.insts.get(*rec.Instance).handle.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("instance %d never finished", *rec.Instance)
	}
	if again := srv.traces.get(rec.ID); len(again.Trace.Spans) != spans {
		t.Errorf("sealed trace grew from %d to %d spans after the request ended", spans, len(again.Trace.Spans))
	}
}
