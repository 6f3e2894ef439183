package explore

import "repro/internal/rounds"

// EnumeratePlans returns every canonical legal plan for the round described
// by v: all crash sets within budget (capped by maxCrashes if > 0, counting
// obligated crashers), all observable reach subsets for each crasher, and —
// in RWS — all observable pending-message patterns within the remaining
// budget.
func EnumeratePlans(v *rounds.View, maxCrashes int) []rounds.Plan {
	return EnumeratePlansInto(nil, v, maxCrashes)
}
