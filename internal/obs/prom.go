package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// splitName separates an inline-labelled metric name into its base name and
// label body: `m{a="1"}` → ("m", `a="1"`), `m` → ("m", "").
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels renders a label body (plus optional extra pairs) as the
// Prometheus series suffix, or "" when there are no labels at all.
func joinLabels(body string, extra ...string) string {
	parts := make([]string, 0, 2)
	if body != "" {
		parts = append(parts, body)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms expose cumulative _bucket series with
// le labels, plus _sum and _count.
func WritePrometheus(w io.Writer, s Snapshot) error {
	emitFamily := func(names []string, kind string, write func(name string) error) error {
		sort.Strings(names)
		seen := map[string]bool{}
		for _, name := range names {
			base, _ := splitName(name)
			if !seen[base] {
				seen[base] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
					return err
				}
			}
			if err := write(name); err != nil {
				return err
			}
		}
		return nil
	}

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	if err := emitFamily(names, "counter", func(name string) error {
		base, labels := splitName(name)
		_, err := fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels), s.Counters[name])
		return err
	}); err != nil {
		return err
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	if err := emitFamily(names, "gauge", func(name string) error {
		base, labels := splitName(name)
		_, err := fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels), s.Gauges[name])
		return err
	}); err != nil {
		return err
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	if err := emitFamily(names, "histogram", func(name string) error {
		base, labels := splitName(name)
		h := s.Histograms[name]
		var cum uint64
		for i, upper := range h.Uppers {
			cum += h.Counts[i]
			le := fmt.Sprintf("le=%q", fmt.Sprintf("%d", upper))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, joinLabels(labels, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, joinLabels(labels, `le="+Inf"`), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, joinLabels(labels), h.Sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, joinLabels(labels), h.Count)
		return err
	}); err != nil {
		return err
	}

	// Bucket-estimated quantiles (stats.BucketQuantile via Snapshot.Quantile)
	// as a companion gauge family, so a scrape without a query engine still
	// shows p50/p95/p99 — the summary view the CLIs print, server-side.
	sort.Strings(names)
	seen := map[string]bool{}
	for _, name := range names {
		base, labels := splitName(name)
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		qbase := base + "_quantile_estimate"
		if !seen[qbase] {
			seen[qbase] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", qbase); err != nil {
				return err
			}
		}
		for _, q := range [...]struct {
			tag string
			q   float64
		}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}} {
			qt := fmt.Sprintf("quantile=%q", q.tag)
			if _, err := fmt.Fprintf(w, "%s%s %d\n",
				qbase, joinLabels(labels, qt), h.Quantile(q.q)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Server exposes a registry over HTTP: GET /metrics serves the Prometheus
// text format, GET /healthz serves a liveness probe. Construct with
// StartServer; the caller owns the lifetime and must Close it.
type Server struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
}

// StartServer listens on addr (e.g. "127.0.0.1:0" for an ephemeral port)
// and serves reg's metrics in the background until Close.
func StartServer(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		reg = Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	s := &Server{
		reg:  reg,
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the server's actual listen address (host:port).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close shuts the server down and joins its goroutine (nil-safe).
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.closeErr = s.srv.Close()
		<-s.done
	})
	return s.closeErr
}
