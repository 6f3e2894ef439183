package explore

import "time"

// Metric names exported by the explorer.
const (
	MetricRuns        = "ssfd_explore_runs_total"
	MetricPlans       = "ssfd_explore_plans_total"
	MetricForks       = "ssfd_explore_forks_total"
	MetricTruncated   = "ssfd_explore_truncated_runs_total"
	MetricRefutations = "ssfd_explore_refutations_total"
)

// Progress is the pace snapshot handed to Options.Progress during long
// explorations.
type Progress struct {
	Runs   int // complete runs visited so far
	Plans  int // adversary plans expanded so far
	Clones int // engine forks performed so far
	Depth  int // rounds executed in the run just completed

	Elapsed    time.Duration
	RunsPerSec float64

	// Expected is the anticipated total run count (Options.ExpectedRuns);
	// 0 when the size of the space is unknown.
	Expected int
	// ETA estimates the remaining wall-clock at the current rate. Only
	// meaningful when Expected > 0 and RunsPerSec has stabilized; 0
	// otherwise (or once Runs >= Expected).
	ETA time.Duration
}
