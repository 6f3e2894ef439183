package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tracing"
)

// errCASConflict reports a check-and-set that lost: the key's head did not
// match the asserted old value. The handler maps it to HTTP 409 with the
// actual head attached, and the client retries from there.
var errCASConflict = errors.New("serve: cas conflict")

// errUndecided reports a KV instance that halted with no node decided
// (possible under heavy chaos: every automaton ran out of rounds undecided).
// The slot is released; the write did not happen.
var errUndecided = errors.New("serve: consensus instance completed undecided")

// KVVersion is one committed version in a key's chain: version k of a key
// is the decision of the k-th consensus instance opened for it.
type KVVersion struct {
	Version  int         `json:"version"`
	Value    model.Value `json:"value"`
	Instance uint64      `json:"instance"`
	// DecideRound is the round of the instance's first decision, the one
	// this version was committed at.
	DecideRound int `json:"decide_round,omitempty"`
}

// kvFlight is one in-flight KV write: the consensus instance opened for a
// key's next version. Exactly one flight exists per key at a time (the
// chain construction: version k+1's instance opens only after version k
// committed), so competing CAS requests wait the flight out and re-check
// the head instead of opening racing instances for the same slot.
type kvFlight struct {
	key  string
	val  model.Value
	done chan struct{} // closed once committed or released

	// set before done closes
	ver *KVVersion
	err error
	// committedAt is stamped at commit() (or release()) entry, before done
	// closes: the consensus/commit boundary for the waiter's phase
	// attribution. The close(done) happens-before edge publishes it.
	committedAt time.Time
}

// kvKey is one key's state: the committed chain plus the open flight, and
// the CAS traffic tallies behind GET /v1/debug/keys.
type kvKey struct {
	versions  []KVVersion
	inflight  *kvFlight
	attempts  int64 // CAS requests that reached this key
	conflicts int64 // CAS requests that lost (409)
}

// kvStore is the replicated KV: a map of per-key consensus chains over the
// server's single engine.
type kvStore struct {
	srv  *Server
	mu   sync.Mutex
	keys map[string]*kvKey
}

func newKVStore(srv *Server) *kvStore {
	return &kvStore{srv: srv, keys: make(map[string]*kvKey)}
}

// KVStats summarizes the store for /v1/status.
type KVStats struct {
	Keys     int `json:"keys"`
	Versions int `json:"versions"`
	InFlight int `json:"in_flight"`
}

func (kv *kvStore) Stats() KVStats {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	st := KVStats{Keys: len(kv.keys)}
	for _, k := range kv.keys {
		st.Versions += len(k.versions)
		if k.inflight != nil {
			st.InFlight++
		}
	}
	return st
}

// Get returns the key's head version (nil if the key has no committed
// versions).
func (kv *kvStore) Get(key string) *KVVersion {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	k := kv.keys[key]
	if k == nil || len(k.versions) == 0 {
		return nil
	}
	head := k.versions[len(k.versions)-1]
	return &head
}

// History returns the key's head, a page of its chain starting at version
// from (1-based; 0 means the start) capped at limit entries, and the total
// chain length. Pagination exists because chains are unbounded: a hot key
// under sustained load accretes one version per committed CAS.
func (kv *kvStore) History(key string, from, limit int) (head *KVVersion, page []KVVersion, total int) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	k := kv.keys[key]
	if k == nil || len(k.versions) == 0 {
		return nil, nil, 0
	}
	total = len(k.versions)
	h := k.versions[total-1]
	head = &h
	if from < 1 {
		from = 1
	}
	if from > total {
		return head, nil, total
	}
	// Clamped before the add: from-1+limit overflows on a huge limit.
	if rest := total - from + 1; limit <= 0 || limit > rest {
		limit = rest
	}
	page = append(page, k.versions[from-1:from-1+limit]...)
	return head, page, total
}

// KeyStats is one row of the hot-key table: CAS traffic and chain shape.
type KeyStats struct {
	Key       string `json:"key"`
	Attempts  int64  `json:"attempts"`
	Conflicts int64  `json:"conflicts"`
	Versions  int    `json:"versions"`
	InFlight  bool   `json:"in_flight"`
}

// HotKeys returns the top-n keys by CAS attempts (ties broken by key), the
// GET /v1/debug/keys table.
func (kv *kvStore) HotKeys(n int) []KeyStats {
	kv.mu.Lock()
	rows := make([]KeyStats, 0, len(kv.keys))
	for key, k := range kv.keys {
		rows = append(rows, KeyStats{
			Key: key, Attempts: k.attempts, Conflicts: k.conflicts,
			Versions: len(k.versions), InFlight: k.inflight != nil,
		})
	}
	kv.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Attempts != rows[j].Attempts {
			return rows[i].Attempts > rows[j].Attempts
		}
		return rows[i].Key < rows[j].Key
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// matches reports whether the asserted old value matches the head (old nil
// asserts the key is absent).
func matches(old *int64, head *KVVersion) bool {
	if old == nil {
		return head == nil
	}
	return head != nil && int64(head.Value) == *old
}

// CAS executes one check-and-set: if the key's head matches old, open a
// consensus instance proposing new at every node and commit its first
// decision as the next version. On a lost race it returns errCASConflict
// with the head that won. On ctx expiry the flight keeps running — the
// commit, if the instance decides, still lands, and the retrying client
// observes it as a conflict.
func (kv *kvStore) CAS(ctx context.Context, key string, old *int64, val model.Value) (*KVVersion, error) {
	tk := trackerFrom(ctx)
	first := true
	for {
		tk.mark(tracing.KindContention)
		kv.mu.Lock()
		k := kv.keys[key]
		if k == nil {
			k = &kvKey{}
			kv.keys[key] = k
		}
		if first {
			k.attempts++
			first = false
		}
		var head *KVVersion
		if len(k.versions) > 0 {
			h := k.versions[len(k.versions)-1]
			head = &h
		}
		if !matches(old, head) {
			k.conflicts++
			kv.mu.Unlock()
			tk.mark(tracing.KindHandler)
			return head, errCASConflict
		}
		if k.inflight != nil {
			fl := k.inflight
			kv.mu.Unlock()
			tk.mark(tracing.KindQueue)
			select {
			case <-fl.done:
				continue // re-check the head this flight (maybe) committed
			case <-ctx.Done():
				tk.mark(tracing.KindHandler)
				return nil, ctx.Err()
			}
		}
		fl := &kvFlight{key: key, val: val, done: make(chan struct{})}
		k.inflight = fl
		kv.mu.Unlock()

		// This request owns the slot: open the instance (all n nodes propose
		// val — the state-machine-replication case) and ride it down. A
		// sampled request puts a tracer on the instance's event sink so its
		// consensus slice can be tiled at round resolution.
		var events obs.Sink
		if tk != nil && tk.sampled {
			tk.tracer = tracing.NewTracer(kv.srv.eng.Algorithm().Name(), "RWS", kv.srv.eng.N(), kv.srv.cfg.T, nil)
			events = tk.tracer
		}
		proposals := make([]model.Value, kv.srv.eng.N())
		for i := range proposals {
			proposals[i] = val
		}
		tk.mark(tracing.KindConsensus)
		rec, err := kv.srv.open(proposals, fl, events)
		if err != nil {
			kv.release(fl, err)
			tk.mark(tracing.KindHandler)
			return nil, err
		}
		if tk != nil {
			tk.instance, tk.hasInst = rec.id, true
		}
		select {
		case <-fl.done:
			// Retro-split at the decision callback's entry stamp: consensus
			// ends where commit() began — at the instance's first decision —
			// and commit ends where this waiter woke. The instance's tail is
			// still emitting, so the tracer is sealed before the window closes.
			tk.markAt(tracing.KindCommit, fl.committedAt)
			tk.seal()
			tk.mark(tracing.KindHandler)
			if fl.err != nil {
				return nil, fl.err
			}
			return fl.ver, nil
		case <-ctx.Done():
			// The instance keeps running; commit() will land the version.
			tk.seal()
			tk.mark(tracing.KindHandler)
			return nil, ctx.Err()
		}
	}
}

// commit lands a KV instance's decision: append the decided value as the
// key's next version and release the flight. Called from the engine's
// decision callback, at the instance's first decision — which uniform
// agreement makes its only one — so the client is answered while the
// instance's relaying tail is still running.
func (kv *kvStore) commit(fl *kvFlight, inst uint64, v model.Value, round int) {
	fl.committedAt = time.Now()
	kv.mu.Lock()
	k := kv.keys[fl.key]
	ver := KVVersion{Version: len(k.versions) + 1, Value: v, Instance: inst, DecideRound: round}
	k.versions = append(k.versions, ver)
	fl.ver = &ver
	if k.inflight == fl {
		k.inflight = nil
	}
	kv.mu.Unlock()
	close(fl.done)
}

// settle closes a flight's books when its instance halts. A flight nobody
// decided still holds the key's slot: release it, the write did not happen.
// A committed flight has nothing left to change: its version is the first
// decider's value, so a node that decided anything else is a disagreement
// among the nodes, which Monitor.Note (and the engine's own agreement tally)
// counts.
func (kv *kvStore) settle(fl *kvFlight, out runtime.InstanceOutcome) {
	if fl.ver != nil { // written by commit on this goroutine, or never
		return
	}
	err := out.Err
	if err == nil {
		err = errUndecided
	}
	kv.release(fl, err)
}

// release abandons a flight that commits nothing: its instance never
// opened, or halted with no node decided.
func (kv *kvStore) release(fl *kvFlight, err error) {
	fl.committedAt = time.Now()
	kv.mu.Lock()
	if k := kv.keys[fl.key]; k != nil && k.inflight == fl {
		k.inflight = nil
	}
	fl.err = err
	kv.mu.Unlock()
	close(fl.done)
}
