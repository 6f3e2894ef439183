// Command ssfd-serve is the consensus-serving daemon: one long-lived
// shared-mesh cluster (n nodes, one failure detector per node) behind an
// HTTP/JSON API. Clients open raw consensus instances with POST
// /v1/propose, read decisions with GET /v1/instance/{id}, and use the
// linearizable KV surface (POST /v1/kv/{key}/cas, GET /v1/kv/{key}) where
// every version of a key is the decision of one consensus instance,
// committed and answered at the instance's first decision. The
// obs endpoints (/metrics, /healthz) ride the same listener; /v1/status
// reports engine statistics and, with -conform, the in-production
// conformance tally.
//
// The n nodes are one process sharing one runtime.ChanNetwork: every message
// takes a simulated delay drawn uniformly from [0, 1ms) and crosses no wire,
// so a request's latency is that delay plus the stack, not a network's.
//
// SIGTERM/SIGINT drains gracefully: new proposals answer 503, in-flight
// instances run to their decisions, then the mesh tears down. The exit
// code reports conformance: a daemon that ever saw a safety violation
// exits nonzero.
//
// Usage:
//
//	ssfd-serve -addr 127.0.0.1:8080 -nodes 3 -t 1 -conform
//	ssfd-serve -nodes 4 -t 2 -alg F_OptFloodSetWS -detector ring
//	ssfd-serve -faults "seed=7,loss=0.1,spike=1ms-3ms@0.2" -conform
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/fdimpl"
	"repro/internal/obscli"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], stop, os.Stdout, os.Stderr))
}

// algNames lists the algorithms' names.
func algNames(algs []rounds.Algorithm) []string {
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name()
	}
	return names
}

func run(args []string, stop <-chan os.Signal, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ssfd-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	nodes := fs.Int("nodes", 3, "cluster size n: in-process nodes sharing one mesh with a simulated uniform [0, 1ms) delay per message, so latency is that delay plus the stack, not a wire")
	t := fs.Int("t", 1, "resilience bound")
	served := algNames(consensus.ForModel(rounds.RWS))
	algName := fs.String("alg", consensus.COptFloodSetWS{}.Name(), "consensus algorithm every instance runs (uniform in RWS: "+strings.Join(served, ", ")+")")
	modelName := fs.String("model", "RWS", "round model (the daemon serves RWS only)")
	detector := fs.String("detector", "", "failure-detector construction (registered: "+strings.Join(fdimpl.Names(), ", ")+")")
	groups := fs.Int("groups", 0, "engine shard workers (0: runtime default)")
	heartbeat := fs.Duration("heartbeat", 0, "detector heartbeat period (0: default)")
	suspectTO := fs.Duration("suspect-timeout", 0, "detector suspect timeout (0: default)")
	maxRounds := fs.Int("max-rounds", 0, "safety cap on rounds per instance (0: default t+2); instances halt at quiescence")
	waitBound := fs.Duration("wait-bound", 0, "receive-or-suspect wait bound per round (0: serving default 2s)")
	faultsSpec := fs.String("faults", "", "fault-injector spec (see internal/faults.ParseSpec, e.g. seed=7,loss=0.1,spike=1ms-3ms@0.2)")
	conformFlag := fs.Bool("conform", false, "attach the conformance monitor: check agreement and validity on every completed instance")
	proposeTO := fs.Duration("propose-timeout", 0, "wait budget for synchronous requests (0: default 30s)")
	drainTO := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before giving up on in-flight instances")
	traceSample := fs.Float64("trace-sample", 0, "head-sampling rate for deep request traces in [0,1] (0: default 0.01; negative: disabled)")
	traceRecent := fs.Int("trace-recent", 0, "recent sampled traces kept for /v1/debug/traces (0: default 256)")
	traceSlowest := fs.Int("trace-slowest", 0, "slowest-request exemplars kept per route (0: default 8)")
	obsFlags := obscli.RegisterOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !strings.EqualFold(*modelName, "RWS") {
		fmt.Fprintln(stderr, "the daemon serves the RWS discipline only: its instances share one detector per node, and serving RS (each instance paced by its own round clock) is not offered (use -model RWS)")
		return 2
	}

	_, teardown, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer func() {
		if err := teardown(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// A write is answered at its instance's first decision, so the chain
	// cannot refuse a fork after the fact: only algorithms uniform in RWS are
	// served. Checked by name, here at the flag — serve.Config.Algorithm takes
	// any rounds.Algorithm, wrappers included.
	alg, ok := consensus.ByName(*algName)
	if !ok || !slices.Contains(served, alg.Name()) {
		fmt.Fprintf(stderr, "-alg %q is not served: a write is committed at its instance's first decision, so the daemon runs only the algorithms uniform in RWS (%s)\n",
			*algName, strings.Join(served, ", "))
		return 2
	}
	var detSpec *runtime.DetectorSpec
	if *detector != "" {
		ds, err := fdimpl.New(*detector)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		detSpec = ds
	}
	cfg := serve.Config{
		N: *nodes, T: *t,
		Algorithm:       alg,
		Detector:        detSpec,
		Groups:          *groups,
		HeartbeatPeriod: *heartbeat,
		SuspectTimeout:  *suspectTO,
		MaxRounds:       *maxRounds,
		WaitBound:       *waitBound,
		Conform:         *conformFlag,
		ProposeTimeout:  *proposeTO,
		TraceSample:     *traceSample,
		TraceRecent:     *traceRecent,
		TraceSlowest:    *traceSlowest,
	}
	if *faultsSpec != "" {
		fc, err := faults.ParseSpec(*faultsSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fc.Flight = obsFlags.FlightRecorder()
		cfg.Faults = &fc
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		_ = srv.Close()
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "ssfd-serve: %d nodes, t=%d, %s on http://%s\n",
		*nodes, *t, alg.Name(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "ssfd-serve: %v, draining (budget %v)\n", sig, *drainTO)
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ssfd-serve: listener failed: %v\n", err)
		_ = srv.Close()
		return 1
	}

	// Drain: refuse new proposals, let in-flight instances decide, then
	// stop answering HTTP at all.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "ssfd-serve: drain: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "ssfd-serve: http shutdown: %v\n", err)
		code = 1
	}
	<-serveErr // Serve has returned ErrServerClosed

	st := srv.Status()
	fmt.Fprintf(stdout, "ssfd-serve: served %d instances (%d reached, %d undecided, %d violated), %d kv keys / %d versions\n",
		st.Engine.Completed, st.Engine.AgreementReached, st.Engine.AgreementNone,
		st.Engine.AgreementViolated, st.KV.Keys, st.KV.Versions)
	if st.Engine.Cost != nil {
		fmt.Fprintln(stdout, st.Engine.Cost.String())
	}
	if mon := srv.Monitor(); mon != nil {
		sum := mon.Summary()
		fmt.Fprintf(stdout, "conformance: checked %d, undecided %d, agreement violations %d, validity violations %d\n",
			sum.Checked, sum.Undecided, sum.AgreementViolations, sum.ValidityViolations)
		if !sum.Clean {
			fmt.Fprintf(stderr, "ssfd-serve: CONFORMANCE VIOLATION: %s\n", sum.FirstViolation)
			if dumped, err := obsFlags.DumpFlight(); err != nil {
				fmt.Fprintf(stderr, "flight: %v\n", err)
			} else if dumped {
				fmt.Fprintf(stderr, "flight: dumped recorder to %s\n", *obsFlags.Flight)
			}
			code = 1
		}
	}
	if st.Engine.AgreementViolated > 0 {
		code = 1
	}
	return code
}
