// Package obscli wires the shared observability flags (-metrics, -events,
// -flight, -cpuprofile, -memprofile) into the command-line tools. Each cmd
// registers the flags before flag.Parse and calls Setup after; everything
// the flags start is torn down by the returned func, which reports any
// write or close failure so callers can fail the process instead of
// silently truncating output files.
package obscli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/netobs"
	"repro/internal/obs"
)

// Create is the file-creation seam every output file of the CLIs goes
// through (the -events stream here, the trace exporters in ssfd-run).
// Tests inject failing writers through it to prove the error paths still
// flush, close and report.
var Create = func(path string) (io.WriteCloser, error) {
	return os.Create(path)
}

// Flags holds the registered flag values. Unset pointer fields read as ""
// (tests build partial literals).
type Flags struct {
	Metrics    *string
	Events     *string
	Flight     *string
	CPUProfile *string
	MemProfile *string

	flight *netobs.Recorder
}

func strv(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

// RegisterOn installs the observability flags on fs, so commands that own
// their FlagSet (and their tests) get the same -metrics/-events/-profile
// surface.
func RegisterOn(fs *flag.FlagSet) *Flags {
	return &Flags{
		Metrics:    fs.String("metrics", "", "serve Prometheus metrics and /healthz on this address (e.g. 127.0.0.1:9090) for the program's lifetime"),
		Events:     fs.String("events", "", "append structured JSONL run events to this file"),
		Flight:     fs.String("flight", "", "arm the flight recorder; dump recent transport/FD records to this file on failure or SIGQUIT"),
		CPUProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		MemProfile: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Setup starts whatever the parsed flags requested: the metrics endpoint
// (over obs.Default), the CPU profile, and the JSONL event emitter. It
// returns the event sink (nil when -events is unset) and a teardown to run
// on every exit path — including error exits — which flushes and closes
// everything and returns the first failure (it also writes -memprofile).
func (f *Flags) Setup() (obs.Sink, func() error, error) {
	var teardowns []func() error
	teardown := func() error {
		var errs []error
		for i := len(teardowns) - 1; i >= 0; i-- {
			if err := teardowns[i](); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	if strv(f.CPUProfile) != "" {
		stop, err := obs.StartCPUProfile(*f.CPUProfile)
		if err != nil {
			return nil, teardown, err
		}
		teardowns = append(teardowns, stop)
	}
	if strv(f.Metrics) != "" {
		srv, err := obs.StartServer(*f.Metrics, nil)
		if err != nil {
			terr := teardown()
			return nil, func() error { return terr }, err
		}
		fmt.Fprintf(os.Stderr, "metrics: %s/metrics\n", srv.URL())
		teardowns = append(teardowns, srv.Close)
	}

	var sink obs.Sink
	if strv(f.Events) != "" {
		file, err := Create(*f.Events)
		if err != nil {
			terr := teardown()
			return nil, func() error { return terr }, fmt.Errorf("obscli: create events file: %w", err)
		}
		// Buffered: a JSONL stream is many small writes, and the flush on
		// teardown is what makes "the run failed mid-way" still leave a
		// complete, parseable file behind.
		buf := bufio.NewWriter(file)
		em := obs.NewEmitter(buf)
		sink = em
		teardowns = append(teardowns, func() error {
			var errs []error
			if err := em.Err(); err != nil {
				errs = append(errs, fmt.Errorf("obscli: events stream: %w", err))
			}
			if err := buf.Flush(); err != nil {
				errs = append(errs, fmt.Errorf("obscli: flushing events file: %w", err))
			}
			if err := file.Close(); err != nil {
				errs = append(errs, fmt.Errorf("obscli: closing events file: %w", err))
			}
			return errors.Join(errs...)
		})
	}

	if strv(f.Flight) != "" {
		// The recorder becomes the outermost event sink so detector and
		// lifecycle events are captured alongside the transport records the
		// runtime writes into it directly (via FlightRecorder below).
		f.flight = netobs.NewRecorder(sink)
		sink = f.flight
		path := *f.Flight
		// SIGQUIT dumps the ring and exits — the in-flight post-mortem hook
		// CI's smoke test exercises. The goroutine is process-lifetime by
		// design; teardown does not join it.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			if err := f.flight.DumpTo(path); err != nil {
				fmt.Fprintf(os.Stderr, "flight: dump failed: %v\n", err)
				os.Exit(3)
			}
			fmt.Fprintf(os.Stderr, "flight: SIGQUIT, dumped recorder to %s\n", path)
			os.Exit(2)
		}()
	}

	if strv(f.MemProfile) != "" {
		path := *f.MemProfile
		teardowns = append(teardowns, func() error {
			return obs.WriteHeapProfile(path)
		})
	}
	return sink, teardown, nil
}

// FlightRecorder returns the armed flight recorder (nil without -flight).
// Commands pass it to the runtime so transports and injectors record into
// it.
func (f *Flags) FlightRecorder() *netobs.Recorder { return f.flight }

// DumpFlight writes the flight ring to the -flight path — the hook
// commands call on a failing exit. A no-op (returning false) without
// -flight.
func (f *Flags) DumpFlight() (bool, error) {
	if f.flight == nil {
		return false, nil
	}
	if err := f.flight.DumpTo(*f.Flight); err != nil {
		return false, err
	}
	return true, nil
}
