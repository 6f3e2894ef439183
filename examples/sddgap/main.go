// sddgap demonstrates the paper's Section 3 solvability separation: the
// Strongly Dependent Decision problem is solvable in the synchronous model
// SS — the Φ+1+Δ protocol works under every schedule and crash timing — yet
// unsolvable with a perfect failure detector (Theorem 3.1): the mechanized
// indistinguishability adversary refutes every candidate protocol.
//
//	go run ./examples/sddgap
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/model"
	"repro/internal/sdd"
	"repro/internal/step"
)

func main() {
	// Part 1: SDD in SS. p1 (input 1) sends its value in its first step;
	// p2 waits Φ+1+Δ of its own steps. Sweep the sender's crash over every
	// early step: validity holds in every run.
	phi, delta := 2, 2
	fmt.Printf("SDD in SS (Φ=%d, Δ=%d): sweeping p1's crash time\n", phi, delta)
	for crashStep := 0; crashStep <= 6; crashStep++ {
		alg := repro.SDDInSS(phi, delta)
		eng, err := step.NewEngine(alg, []model.Value{1, 0})
		if err != nil {
			log.Fatal(err)
		}
		sched := step.NewSSScheduler(phi, delta, 42, step.StopWhenDecided(model.Singleton(sdd.DefaultObserver)))
		if crashStep > 0 {
			sched.CrashAtStep = map[model.ProcessID]int{sdd.DefaultSender: crashStep}
		}
		tr, err := eng.Run(sched, 10000)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "ok"
		if bad := sdd.FirstViolation(tr, sdd.Spec{Sender: sdd.DefaultSender, Observer: sdd.DefaultObserver, Input: 1}); bad != nil {
			verdict = bad.String()
		}
		label := "no crash"
		if crashStep > 0 {
			label = fmt.Sprintf("p1 crashes before global step %d", crashStep)
		}
		fmt.Printf("  %-36s → p2 decides %d at its step %d  [%s]\n",
			label, int64(tr.DecidedValue[sdd.DefaultObserver]), tr.DecidedAtLocal[sdd.DefaultObserver], verdict)
	}

	// Part 2: SDD in SP. Theorem 3.1's adversary constructs, for any
	// deterministic protocol, a pair of indistinguishable runs forcing a
	// validity violation. Run it against every natural candidate.
	fmt.Println("\nSDD in SP (Theorem 3.1's mechanized adversary):")
	for _, cand := range repro.SDDCandidates() {
		ref, err := repro.RefuteSDDInSP(cand, 1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-32s REFUTED (%v): %s\n", cand.Name(), ref.Kind, ref.Detail)
	}

	// Show one witness run in full: the observer suspects the crashed
	// sender and decides 0 while the sender's message — sent in its one and
	// only step — is still in flight.
	ref, err := repro.RefuteSDDInSP(sdd.NewReceiveOrSuspect(), 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwitness run for %s (sender input %d, observer decided %d):\n",
		ref.Algorithm, int64(ref.WitnessInput), int64(ref.StarvedDecision))
	fmt.Print(step.RenderSteps(ref.Witness, 12))
}
