package core

import "fmt"

// RunAll executes every experiment and returns the reports.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, e := range All() {
		r, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("core: %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
