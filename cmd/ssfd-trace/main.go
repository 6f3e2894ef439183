// Command ssfd-trace analyzes a saved causal trace: it reads the Chrome
// trace-event JSON that ssfd-run -trace writes, decomposes each process's
// decision latency into round-barrier, detector-timeout, transport and
// compute time, and prints the attribution table. The same file loads
// unchanged in Perfetto (ui.perfetto.dev) or chrome://tracing; this
// command is the terminal-side view of it.
//
// With -flight it instead ingests a flight-recorder dump (the ring of recent
// events, with the transport and fault counters, that the CLIs write on
// conformance failure, a detector-breaking chaos run or SIGQUIT) and prints
// the post-mortem: activity by event type, per-link traffic and drops from
// the counters, and the last events before the dump.
//
// With -serve it talks to a running ssfd-serve daemon instead of a file:
// with no argument it lists the recent sampled requests and the slowest
// exemplars per route; with a request id it fetches the full record, prints
// the per-request phase attribution (verified to tile the measured total
// exactly) and, for sampled requests, the embedded consensus instance's
// PR 5-style attribution table.
//
// Usage:
//
//	ssfd-run -alg A1 -model RS -values 3,1,2 -conform -trace run.trace.json
//	ssfd-trace run.trace.json
//	ssfd-trace -json run.trace.json            # attribution as JSON
//	ssfd-trace -html timeline.html run.trace.json
//	ssfd-trace -flight flight.jsonl            # flight-dump post-mortem
//	ssfd-trace -serve http://127.0.0.1:8080    # live: recent + slowest
//	ssfd-trace -serve http://127.0.0.1:8080 r00000001
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/serve"
	"repro/internal/tracing"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssfd-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "print the attribution as JSON instead of a table")
	htmlOut := fs.String("html", "", "additionally re-export the trace as a self-contained HTML timeline to this file")
	flightIn := fs.Bool("flight", false, "treat the input as a flight-recorder dump and print its post-mortem")
	serveURL := fs.String("serve", "", "fetch live traces from a running ssfd-serve at this base URL instead of reading a file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ssfd-trace [-json] [-html out.html] trace.json")
		fmt.Fprintln(stderr, "       ssfd-trace -flight flight.jsonl")
		fmt.Fprintln(stderr, "       ssfd-trace -serve http://host:port [request-id]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *serveURL != "" {
		if fs.NArg() > 1 {
			fs.Usage()
			return 2
		}
		return runServe(*serveURL, fs.Arg(0), *jsonOut, *htmlOut, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if *flightIn {
		return runFlight(fs.Arg(0), stdout, stderr)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tr, err := tracing.ReadChrome(f)
	closeErr := f.Close()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if closeErr != nil {
		fmt.Fprintln(stderr, closeErr)
		return 1
	}

	if *htmlOut != "" {
		out, err := obscli.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		werr := tr.WriteHTML(out)
		cerr := out.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(stderr, "html export: write=%v close=%v\n", werr, cerr)
			return 1
		}
	}

	attr := tracing.Attribute(tr)
	code := 0
	if err := attr.CheckSums(); err != nil {
		// A trace whose components do not tile its latency is corrupt or
		// hand-edited; report but still print what was computed.
		fmt.Fprintln(stderr, err)
		code = 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(attr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return code
	}
	fmt.Fprint(stdout, attr.Table())
	return code
}

// runServe is the live mode: list a daemon's recent and slowest requests,
// or fetch one request's record and render its attribution.
func runServe(base, id string, jsonOut bool, htmlOut string, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := &serve.Client{BaseURL: strings.TrimRight(base, "/")}
	if id == "" {
		dt, err := cl.DebugTraces(ctx)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dt); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
		fmt.Fprintf(stdout, "sampling: rate %.4g, %d requests seen, %d sampled (recent cap %d, slowest %d/route)\n",
			dt.Sampling.Rate, dt.Sampling.Requests, dt.Sampling.Sampled,
			dt.Sampling.RecentCap, dt.Sampling.SlowestPerRoute)
		if len(dt.Recent) > 0 {
			fmt.Fprintln(stdout, "recent sampled requests (newest first):")
			for i := range dt.Recent {
				printTraceRow(stdout, &dt.Recent[i])
			}
		}
		routes := make([]string, 0, len(dt.Slowest))
		for r := range dt.Slowest {
			routes = append(routes, r)
		}
		sort.Strings(routes)
		for _, r := range routes {
			fmt.Fprintf(stdout, "slowest %s:\n", r)
			for i := range dt.Slowest[r] {
				printTraceRow(stdout, &dt.Slowest[r][i])
			}
		}
		return 0
	}

	rec, err := cl.DebugTrace(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	code := 0
	fmt.Fprintf(stdout, "request %s: %s %s -> %d, %.3fms", rec.ID, rec.Method, rec.Route, rec.Status, ms(rec.TotalNS))
	if rec.Key != "" {
		fmt.Fprintf(stdout, " (key %q)", rec.Key)
	}
	if rec.Instance != nil {
		fmt.Fprintf(stdout, " (instance %d)", *rec.Instance)
	}
	fmt.Fprintln(stdout)
	p := rec.Phases
	fmt.Fprintf(stdout, "  handler    %10.3fms\n", ms(p.HandlerNS))
	fmt.Fprintf(stdout, "  queue      %10.3fms\n", ms(p.QueueNS))
	fmt.Fprintf(stdout, "  contention %10.3fms\n", ms(p.ContentionNS))
	fmt.Fprintf(stdout, "  consensus  %10.3fms\n", ms(p.ConsensusNS))
	fmt.Fprintf(stdout, "  commit     %10.3fms\n", ms(p.CommitNS))
	if err := serve.VerifyRequestTrace(rec); err != nil {
		fmt.Fprintln(stderr, err)
		code = 1
	} else {
		fmt.Fprintf(stdout, "  sums: phases tile the total exactly (%dns)\n", rec.TotalNS)
	}
	if rec.Trace != nil {
		if htmlOut != "" {
			out, err := obscli.Create(htmlOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			werr := rec.Trace.WriteHTML(out)
			cerr := out.Close()
			if werr != nil || cerr != nil {
				fmt.Fprintf(stderr, "html export: write=%v close=%v\n", werr, cerr)
				return 1
			}
		}
		fmt.Fprintln(stdout, "consensus instance attribution:")
		fmt.Fprint(stdout, tracing.Attribute(rec.Trace).Table())
	}
	return code
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func printTraceRow(w io.Writer, rec *serve.RequestTrace) {
	mark := " "
	if rec.Sampled {
		mark = "*"
	}
	fmt.Fprintf(w, "  %s %-10s %-9s %4s %3d %9.3fms  h %.2f q %.2f c %.2f cons %.2f commit %.2f\n",
		mark, rec.ID, rec.Route, rec.Method, rec.Status, ms(rec.TotalNS),
		ms(rec.Phases.HandlerNS), ms(rec.Phases.QueueNS), ms(rec.Phases.ContentionNS),
		ms(rec.Phases.ConsensusNS), ms(rec.Phases.CommitNS))
}

// runFlight ingests a flight-recorder dump and prints the post-mortem:
// activity by event type over the ring, the transport and fault counters
// at the dump (exact totals, evicted events included) and the last events.
func runFlight(path string, stdout, stderr io.Writer) int {
	d, err := obs.ReadDumpFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "flight dump: %d events (ring capacity %d, %d evicted before dump)\n",
		d.Header.Count, d.Header.Capacity, d.Header.Dropped)

	types := map[obs.EventType]int{}
	for _, ev := range d.Events {
		types[ev.Type]++
	}
	fmt.Fprintln(stdout, "activity:")
	for _, typ := range sortedKeys(types) {
		fmt.Fprintf(stdout, "  %-12s %6d\n", typ, types[typ])
	}

	counters := map[string]int64{}
	for name, v := range d.Header.Counters {
		for _, family := range []string{"ssfd_link_", "ssfd_transport_", "ssfd_faults_"} {
			if strings.HasPrefix(name, family) {
				counters[name] = v
			}
		}
	}
	if len(counters) > 0 {
		fmt.Fprintln(stdout, "transport and fault counters (exact totals):")
		for _, name := range sortedKeys(counters) {
			fmt.Fprintf(stdout, "  %s %d\n", name, counters[name])
		}
	}

	tail := d.Events
	const lastN = 10
	if len(tail) > lastN {
		tail = tail[len(tail)-lastN:]
	}
	if len(tail) > 0 {
		fmt.Fprintf(stdout, "last %d events:\n", len(tail))
		for _, ev := range tail {
			line, err := json.Marshal(ev)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
	return 0
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
