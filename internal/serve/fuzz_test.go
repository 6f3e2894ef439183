package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fuzzServer is shared across fuzz iterations: one live cluster, built
// lazily — the fuzz executor forks worker processes, and each builds its
// own on first use.
var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
)

func fuzzTarget(f *testing.F) http.Handler {
	fuzzOnce.Do(func() {
		srv, err := New(Config{
			N: 3, T: 1,
			HeartbeatPeriod: 2 * time.Millisecond,
			SuspectTimeout:  time.Second,
			// Small wait budget: a fuzz input that opens a KV slot must not
			// park an iteration for the serving default.
			ProposeTimeout: 2 * time.Second,
			Conform:        true,
			Metrics:        obs.NewRegistry(),
		})
		if err != nil {
			f.Fatalf("fuzz server: %v", err)
		}
		fuzzHandler = srv.Handler()
	})
	return fuzzHandler
}

// sane is the closed set of statuses the API is allowed to answer — the
// fuzz oracle. Anything else (worst of all a 0 from a panic) fails.
func saneStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusMovedPermanently, http.StatusBadRequest,
		http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusConflict,
		http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusInternalServerError:
		return true
	}
	return false
}

// FuzzServeRequest drives arbitrary (method, path, body) triples through
// the full handler: it must never panic, always answer a status from the
// closed set, and always answer well-formed JSON.
func FuzzServeRequest(f *testing.F) {
	f.Add("POST", "/v1/propose", []byte(`{"value":7}`))
	f.Add("POST", "/v1/propose", []byte(`{"values":[1,2,3]}`))
	f.Add("POST", "/v1/propose", []byte(`{"value":`))
	f.Add("GET", "/v1/instance/0", []byte(nil))
	f.Add("GET", "/v1/instance/0?wait=1", []byte(nil))
	f.Add("POST", "/v1/kv/fuzz/cas", []byte(`{"old":null,"new":5}`))
	f.Add("POST", "/v1/kv/fuzz/cas", []byte(`{"old":5,"new":6}`))
	f.Add("GET", "/v1/kv/fuzz?history=1&from=2&limit=9223372036854775807", []byte(nil))
	f.Add("GET", "/v1/kv/fuzz?history=1", []byte(nil))
	f.Add("GET", "/v1/status", []byte(nil))
	f.Add("DELETE", "/v1/kv/fuzz", []byte(nil))
	f.Add("GET", "/../../etc/passwd", []byte(nil))
	f.Add("PATCH", "/v1/propose", []byte(strings.Repeat("A", 9000)))

	h := fuzzTarget(f)
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		if len(body) > 1<<14 {
			return // maxBody already bounds the server; cap the fuzz input
		}
		req, err := http.NewRequest(method, "http://fuzz.test"+path, bytes.NewReader(body))
		if err != nil {
			return // not a constructible request — nothing to serve
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the fuzz run

		if !saneStatus(rec.Code) {
			t.Fatalf("%s %q -> insane status %d (body %.120q)", method, path, rec.Code, rec.Body.String())
		}
		// Every response under /v1/ is JSON; /healthz and /metrics are the
		// two text surfaces.
		p := req.URL.Path
		if p != "/healthz" && p != "/metrics" {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q -> non-JSON body %.120q", method, path, rec.Body.String())
			}
		}
	})
}
