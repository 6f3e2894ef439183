package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
)

// ParseSpec parses the compact command-line fault grammar into a Config.
// The spec is a comma-separated list of items:
//
//	seed=7                 PRNG seed (default 1)
//	loss=0.3               per-link drop probability
//	dup=0.1                per-link duplication probability
//	reorder=0.2            per-link reorder (holdback) probability
//	spike=100ms@0.5        delay spikes: magnitude@probability (@p optional,
//	                       default 1; magnitude may be a range lo-hi)
//	part=3.4@50ms+200ms    partition group {p3,p4} forming at +50ms and
//	                       healing 200ms later
//	crash=2@10ms+80ms      p2 blackholed at +10ms, recovering 80ms later
//	                       (+dur optional: omitted means never recovers)
//
// part and crash may repeat; everything else is last-wins.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return cfg, fmt.Errorf("faults: spec item %q is not key=value", item)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "loss":
			cfg.Default.Drop, err = parseProb(val)
		case "dup":
			cfg.Default.Duplicate, err = parseProb(val)
		case "reorder":
			cfg.Default.Reorder, err = parseProb(val)
		case "spike":
			err = parseSpike(val, &cfg.Default)
		case "part":
			var p Partition
			if p, err = parsePartition(val); err == nil {
				cfg.Partitions = append(cfg.Partitions, p)
			}
		case "crash":
			var c NodeCrash
			if c, err = parseCrash(val); err == nil {
				cfg.Crashes = append(cfg.Crashes, c)
			}
		default:
			return cfg, fmt.Errorf("faults: unknown spec key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("faults: spec item %q: %w", item, err)
		}
	}
	return cfg, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN too
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// parseSpike parses "100ms", "100ms@0.5" or "50ms-150ms@0.3".
func parseSpike(s string, lf *LinkFaults) error {
	mag, probStr, hasProb := strings.Cut(s, "@")
	lf.Spike = 1
	if hasProb {
		p, err := parseProb(probStr)
		if err != nil {
			return err
		}
		lf.Spike = p
	}
	lo, hi, isRange := strings.Cut(mag, "-")
	dLo, err := time.ParseDuration(lo)
	if err != nil {
		return err
	}
	dHi := dLo
	if isRange {
		if dHi, err = time.ParseDuration(hi); err != nil {
			return err
		}
	}
	if dLo <= 0 || dHi < dLo {
		return fmt.Errorf("bad spike range %v-%v", dLo, dHi)
	}
	lf.SpikeMin, lf.SpikeMax = dLo, dHi
	return nil
}

// parseProcs parses "3" or "1.3" into a set.
func parseProcs(s string) (model.ProcSet, error) {
	var set model.ProcSet
	for _, part := range strings.Split(s, ".") {
		p, err := strconv.Atoi(part)
		if err != nil || p < 1 || p > model.MaxProcs {
			return 0, fmt.Errorf("bad process id %q", part)
		}
		set = set.Add(model.ProcessID(p))
	}
	return set, nil
}

// parseWindow parses "50ms+200ms" (or "50ms" with zero length) into
// (start, length).
func parseWindow(s string) (time.Duration, time.Duration, error) {
	startStr, lenStr, hasLen := strings.Cut(s, "+")
	start, err := time.ParseDuration(startStr)
	if err != nil || start < 0 {
		return 0, 0, fmt.Errorf("bad window start %q", startStr)
	}
	var length time.Duration
	if hasLen {
		if length, err = time.ParseDuration(lenStr); err != nil || length <= 0 {
			return 0, 0, fmt.Errorf("bad window length %q", lenStr)
		}
	}
	return start, length, nil
}

func parsePartition(s string) (Partition, error) {
	procs, window, ok := strings.Cut(s, "@")
	if !ok {
		return Partition{}, fmt.Errorf("expected PROCS@START+DUR, got %q", s)
	}
	group, err := parseProcs(procs)
	if err != nil {
		return Partition{}, err
	}
	start, length, err := parseWindow(window)
	if err != nil {
		return Partition{}, err
	}
	if length <= 0 {
		return Partition{}, fmt.Errorf("partition %q needs a +DUR length", s)
	}
	return Partition{Start: start, End: start + length, Group: group}, nil
}

func parseCrash(s string) (NodeCrash, error) {
	procStr, window, ok := strings.Cut(s, "@")
	if !ok {
		return NodeCrash{}, fmt.Errorf("expected PROC@AT[+DUR], got %q", s)
	}
	p, err := strconv.Atoi(procStr)
	if err != nil || p < 1 || p > model.MaxProcs {
		return NodeCrash{}, fmt.Errorf("bad process id %q", procStr)
	}
	at, length, err := parseWindow(window)
	if err != nil {
		return NodeCrash{}, err
	}
	return NodeCrash{Proc: model.ProcessID(p), At: at, For: length}, nil
}
