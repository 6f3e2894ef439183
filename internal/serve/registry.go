package serve

import (
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// instRecord is the server's view of one consensus instance: the engine
// handle, the proposal vector (what the conformance monitor checks validity
// against) and, for KV instances, the flight its first decision commits.
type instRecord struct {
	id        uint64
	handle    *runtime.Instance
	proposals []model.Value
	flight    *kvFlight
}

// instanceRegistry maps instance ids to records. Open and the engine's
// callbacks race by construction — one can fire on a worker goroutine before
// Open's caller has even seen the id — so the registry holds its lock across
// the engine Open: by the time the lock drops, the record is findable.
type instanceRegistry struct {
	mu   sync.Mutex
	recs map[uint64]*instRecord
}

func newInstanceRegistry() *instanceRegistry {
	return &instanceRegistry{recs: make(map[uint64]*instRecord)}
}

// open admits an instance and registers its record atomically. events,
// when non-nil, receives the instance's round events (a sampled request's
// deep trace).
func (ir *instanceRegistry) open(eng *runtime.Engine, proposals []model.Value, fl *kvFlight, events obs.Sink) (*instRecord, error) {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	h, err := eng.OpenWith(func(id model.ProcessID) model.Value { return proposals[id-1] },
		runtime.OpenOptions{Events: events})
	if err != nil {
		return nil, err
	}
	rec := &instRecord{id: h.ID(), handle: h, proposals: proposals, flight: fl}
	ir.recs[rec.id] = rec
	return rec, nil
}

// get looks an instance up; nil if never opened here. Records are kept after
// completion so GET /v1/instance stays answerable; the engine handle already
// carries the outcome, so this costs one map entry per instance.
func (ir *instanceRegistry) get(id uint64) *instRecord {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	return ir.recs[id]
}
