// atomiccommit demonstrates the paper's Section 3 corollary: atomic commit
// protocols in the synchronous model commit strictly more often than any
// protocol relying on a perfect failure detector. Three databases vote on a
// transaction; the coordinator-free NBAC protocol floods the vote vector;
// the decisive difference is what happens when a participant crashes right
// after voting Yes.
//
//	go run ./examples/atomiccommit
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/nbac"
	"repro/internal/trace"
)

func main() {
	n := 4
	fmt.Printf("Non-blocking atomic commit, %d participants, all vote Yes, one crash.\n\n", n)

	fmt.Println("Worst-case outcomes by crash timing:")
	fmt.Printf("  %-22s  %-14s  %s\n", "scenario", "RS (from SS)", "RWS (from SP)")
	for _, sc := range nbac.Scenarios() {
		out, err := nbac.WorstCase(sc, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s  %-14s  %s\n", sc,
			nbac.DecisionString(decisionOf(out.RSCommit)),
			nbac.DecisionString(decisionOf(out.RWSCommit)))
	}

	fmt.Println("\nThe separating scenario in detail — the participant votes Yes,")
	fmt.Println("completes its broadcast step, then crashes:")
	out, err := nbac.WorstCase(nbac.CrashAfterVoting, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nIn RS, message synchrony already delivered the vote: COMMIT.")
	fmt.Print(trace.RenderRun(out.RSRun))
	fmt.Println("\nIn RWS, the vote can be pending — suspected before delivered: ABORT.")
	fmt.Print(trace.RenderRun(out.RWSRun))

	rates, err := nbac.MeasureRates(n, 2000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRandomized commit rates (matched seeds, all-Yes votes): %s\n", rates)
	fmt.Println("The synchronous model turns \"crashed after voting\" into COMMIT;")
	fmt.Println("the failure-detector model cannot — the paper's efficiency corollary.")
}

func decisionOf(commit bool) repro.Value {
	if commit {
		return nbac.Commit
	}
	return nbac.Abort
}
