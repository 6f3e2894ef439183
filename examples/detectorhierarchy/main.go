// detectorhierarchy walks the Chandra–Toueg failure-detector ladder that
// frames the paper's comparison:
//
//   - SS beats P: the known Φ/Δ bounds solve SDD; P cannot (examples/sddgap).
//   - P beats ◇S on resilience: uniform consensus with P tolerates any
//     t < n crashes; with ◇S a majority must stay correct — but ◇S costs
//     nothing more than *eventual* accuracy, which real timeouts deliver
//     without any known bound.
//
// This example generates adversarial histories of each class, shows which
// axioms they satisfy, and runs Chandra–Toueg ◇S consensus under heavy
// pre-stabilization suspicion noise.
//
//	go run ./examples/detectorhierarchy
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/ctoueg"
	"repro/internal/fd"
	"repro/internal/model"
)

func main() {
	// A failure pattern: p4 crashes at time 30 (of a 200-tick horizon).
	fp := model.NewFailurePattern(4)
	if err := fp.SetCrash(4, 30); err != nil {
		log.Fatal(err)
	}
	horizon := model.Time(200)

	fmt.Println("Generated histories vs. the axioms (n=4, p4 crashes at t=30):")
	fmt.Printf("  %-6s %-12s %-12s %-14s %-14s\n", "class", "strong acc.", "weak acc.", "event. strong", "event. weak")
	for _, class := range []fd.Class{fd.P, fd.EventuallyP, fd.S, fd.EventuallyS} {
		h, err := fd.Generate(class, fp, fd.GenOptions{
			Horizon: horizon, MaxDetectionDelay: 5, Seed: 11, FalseSuspicionRate: 0.9,
		})
		if err != nil {
			log.Fatal(err)
		}
		mark := func(v []fd.Violation) string {
			if len(v) == 0 {
				return "✓"
			}
			return "✗"
		}
		fmt.Printf("  %-6v %-12s %-12s %-14s %-14s\n", class,
			mark(fd.CheckStrongAccuracy(fp, h, horizon)),
			mark(fd.CheckWeakAccuracy(fp, h, horizon)),
			mark(fd.CheckEventualStrongAccuracy(fp, h, horizon)),
			mark(fd.CheckEventualWeakAccuracy(fp, h, horizon)))
	}

	fmt.Println("\nChandra–Toueg consensus under ◇S (n=3, t=1, 90% false-suspicion noise")
	fmt.Println("before stabilization; p1 crashes at step 5):")
	inputs := []repro.Value{3, 1, 2}
	res, err := ctoueg.Run(inputs, ctoueg.RunConfig{
		T: 1, Seed: 7,
		CrashAt:            map[model.ProcessID]int{1: 5},
		FalseSuspicionRate: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		if res.Trace.Decided[p] {
			fmt.Printf("  p%d decided %d at its step %d\n", p, int64(res.Trace.DecidedValue[p]), res.Trace.DecidedAtLocal[p])
		} else {
			fmt.Printf("  p%d crashed undecided\n", p)
		}
	}
	if viol := ctoueg.CheckConsensus(res.Trace, inputs); len(viol) == 0 {
		fmt.Println("  uniform consensus: OK")
	} else {
		fmt.Printf("  VIOLATION: %s\n", viol[0])
	}

	fmt.Println("\nThe ladder, top to bottom:")
	fmt.Println("  SS  — bounded detection: solves SDD, Λ=1 consensus, NBAC that commits after any vote")
	fmt.Println("  SP  — perfect but unbounded detection: consensus yes (any t<n), SDD no, Λ≥2")
	fmt.Println("  ◇S  — eventual accuracy only: consensus still yes, but only with a correct majority")
}
