package rounds

import "repro/internal/model"

// Alive returns the processes alive after the last completed round.
func (e *Engine) Alive() model.ProcSet { return e.alive }
