// livecluster runs the paper's algorithms on real goroutines: an in-process
// bounded-delay network with heartbeat failure detection, a lock-step RS
// cluster, a receive-or-suspect RWS cluster, a TCP cluster on localhost,
// and — the finale — the §5.3 disagreement reproduced live, with real
// messages in flight while real timeouts fire.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"time"

	repro "repro"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/wire"
)

func report(label string, cr *repro.ClusterResult) {
	v, status := cr.Agreement()
	fmt.Printf("--- %s (elapsed %v)\n", label, cr.Elapsed.Round(time.Millisecond))
	out := cr.Outcome
	for i, nd := range out.Nodes {
		switch {
		case nd.Crashed:
			if out.Decided[i] {
				fmt.Printf("  p%d: CRASHED after deciding %d at round %d\n", i+1, int64(out.Decisions[i]), nd.DecidedAt)
			} else {
				fmt.Printf("  p%d: CRASHED undecided\n", i+1)
			}
		case out.Decided[i]:
			fmt.Printf("  p%d: decided %d at round %d\n", i+1, int64(out.Decisions[i]), nd.DecidedAt)
		default:
			fmt.Printf("  p%d: undecided\n", i+1)
		}
	}
	switch status {
	case repro.AgreementReached:
		fmt.Printf("  agreement: YES (value %d), false suspicions: %d\n\n", int64(v), cr.Stats.FalseSuspicions)
	case repro.AgreementViolated:
		fmt.Printf("  agreement: *** VIOLATED ***, false suspicions: %d\n\n", cr.Stats.FalseSuspicions)
	default:
		fmt.Printf("  agreement: no decisions, false suspicions: %d\n\n", cr.Stats.FalseSuspicions)
	}
}

func main() {
	// 1. Lock-step RS over in-process channels: A1 decides in one round.
	cr, err := repro.RunLive(repro.A1(), repro.EngineConfig{
		Kind: repro.RS, T: 1,
		RoundDuration: 15 * time.Millisecond,
	}, []repro.Value{9, 1, 5}, repro.LiveOpenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report("A1 over lock-step RS (goroutines + channels)", cr)

	// 2. RWS with live heartbeat failure detection; p1 crashes silently.
	cr, err = repro.RunLive(repro.FloodSetWS(), repro.EngineConfig{
		Kind: repro.RWS, T: 1,
	}, []repro.Value{0, 5, 9}, repro.LiveOpenOptions{
		Crashes: map[repro.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 0}}})
	if err != nil {
		log.Fatal(err)
	}
	report("FloodSetWS over receive-or-suspect RWS, p1 crashes before voting", cr)

	// 3. The same consensus over real TCP connections on localhost.
	tcp, err := runtime.NewTCPNetwork(3)
	if err != nil {
		log.Fatal(err)
	}
	cr, err = repro.RunLive(repro.FloodSet(), repro.EngineConfig{
		Kind: repro.RS, T: 1,
		RoundDuration: 30 * time.Millisecond, Network: tcp,
	}, []repro.Value{4, 2, 7}, repro.LiveOpenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report("FloodSet over TCP (127.0.0.1 mesh)", cr)

	// 4. The §5.3 disagreement, live: p1's A1 value messages crawl (300ms)
	// while heartbeats are prompt, p1 decides via self-delivery and dies;
	// the survivors' detectors fire first and they decide p2's value.
	slow := func(from, to model.ProcessID, data []byte) time.Duration {
		env, err := wire.Decode(data)
		if err == nil && from == 1 && env.Kind == wire.KindA1Val {
			return 300 * time.Millisecond
		}
		return 500 * time.Microsecond
	}
	nw := runtime.NewChanNetwork(3, runtime.ChanConfig{Delay: slow})
	cr, err = repro.RunLive(repro.A1(), repro.EngineConfig{
		Kind: repro.RWS, T: 1,
		Network: nw,
	}, []repro.Value{3, 1, 2}, repro.LiveOpenOptions{
		Crashes: map[repro.ProcessID]runtime.CrashPlan{1: {Round: 2, Reach: 0}}})
	if err != nil {
		log.Fatal(err)
	}
	report("A1 transplanted to live RWS — the §5.3 scenario", cr)
	fmt.Println("The last run shows why the paper's Λ lower bound is not an abstract")
	fmt.Println("artifact: with only a perfect failure detector, deciding in round 1")
	fmt.Println("costs uniform agreement the moment messages race timeouts.")
}
