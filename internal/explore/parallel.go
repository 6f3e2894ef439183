package explore

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rounds"
)

// shared is the state common to every worker of one exploration: the one
// count of each fact (runs, plans, clones, truncated runs) that Stats,
// Progress and the registry all read, the cooperative stop flag, and the
// pace state behind Progress callbacks.
type shared struct {
	runs      atomic.Int64
	plans     atomic.Int64
	clones    atomic.Int64
	truncated atomic.Int64

	stop atomic.Bool // set on early stop (visitor false) and on failure

	progressMu sync.Mutex
	start      time.Time
	expected   int // anticipated total runs (0 = unknown), for Progress ETA
}

// stats reads the totals; exact once the pool has drained.
func (sh *shared) stats() Stats {
	return Stats{
		Runs:      int(sh.runs.Load()),
		Plans:     int(sh.plans.Load()),
		Clones:    int(sh.clones.Load()),
		Truncated: int(sh.truncated.Load()),
	}
}

// progress emits one Progress snapshot built from the shared totals. The
// mutex only serializes concurrent callbacks; the snapshot itself is a
// best-effort read of in-flight counters, exactly as documented on
// Options.Progress.
func (sh *shared) progress(fn func(Progress), depth int) {
	sh.progressMu.Lock()
	defer sh.progressMu.Unlock()
	elapsed := time.Since(sh.start)
	runs := int(sh.runs.Load())
	rps := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rps = float64(runs) / s
	}
	var eta time.Duration
	if sh.expected > 0 && rps > 0 && runs < sh.expected {
		eta = time.Duration(float64(sh.expected-runs) / rps * float64(time.Second))
	}
	fn(Progress{
		Runs:       runs,
		Plans:      int(sh.plans.Load()),
		Clones:     int(sh.clones.Load()),
		Depth:      depth,
		Elapsed:    elapsed,
		RunsPerSec: rps,
		Expected:   sh.expected,
		ETA:        eta,
	})
}

// pool is the explorer's work queue: a LIFO stack of engine branches whose
// ownership transfers wholly to whichever worker pops them (engines are
// never shared, so workers touch no locks while exploring a branch). LIFO
// order keeps the queue shallow — a popped branch is the most recently
// forked, hence the deepest, so the queue holds the frontier of the DFS
// rather than its whole breadth. A one-worker pool never forks: its queue
// only ever holds the root.
//
// Termination is by idle counting: a worker that finds the queue empty
// parks and increments idle; when every worker is idle the space is drained
// (no branch exists outside the queue) and the pool closes itself.
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*rounds.Engine
	idle    int
	workers int
	done    bool
	err     error // first terminal error (sticky)
}

func newPool(workers int) *pool {
	p := &pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// push hands a branch to the pool. Branches pushed after close are dropped:
// the exploration is already stopping and the engine is garbage either way.
func (p *pool) push(eng *rounds.Engine) {
	p.mu.Lock()
	if !p.done {
		p.queue = append(p.queue, eng)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// next blocks until a branch is available or the pool drains/closes; the
// second result reports whether a branch was returned.
func (p *pool) next() (*rounds.Engine, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle++
	for {
		if p.done {
			return nil, false
		}
		if n := len(p.queue); n > 0 {
			eng := p.queue[n-1]
			p.queue[n-1] = nil
			p.queue = p.queue[:n-1]
			p.idle--
			return eng, true
		}
		if p.idle == p.workers {
			// Every worker is parked and the queue is empty: no branch can
			// ever appear again. Drained.
			p.done = true
			p.cond.Broadcast()
			return nil, false
		}
		p.cond.Wait()
	}
}

// close stops the pool, recording the terminal error. Real failures take
// precedence over the cooperative errStopped: once a worker hits a stop
// condition its siblings all surface errStopped at their next check, and
// that echo must not mask the originating error.
func (p *pool) close(err error) {
	p.mu.Lock()
	if p.err == nil || (errors.Is(p.err, errStopped) && !errors.Is(err, errStopped)) {
		p.err = err
	}
	p.done = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// drain explores the run space rooted at root over a pool of workers and
// returns the merged visitor. The root engine is seeded as the first queue
// entry; workers pop branches, recurse below the fork horizon, and push the
// shallow forks they encounter back onto the queue for stealing. The
// caller's goroutine is the first worker, so a one-worker pool starts no
// goroutine and visits runs in depth-first order.
func drain(root *rounds.Engine, opts Options, sh *shared, mkVisitor func() Visitor, workers int) (Visitor, error) {
	p := newPool(workers)
	p.push(root)

	es := make([]*explorer, workers)
	for i := range es {
		es[i] = &explorer{opts: opts, shared: sh, pool: p}
		if mkVisitor != nil {
			es[i].visitor = mkVisitor()
		}
	}
	var wg sync.WaitGroup
	for _, e := range es[1:] {
		wg.Add(1)
		go func(e *explorer) {
			defer wg.Done()
			e.work()
		}(e)
	}
	es[0].work()
	wg.Wait()

	// Merge in worker order: the fold is deterministic given the partition,
	// and Visitor.Merge is required to be associative/commutative over
	// disjoint run sets, so any partition yields the same aggregate.
	merged := es[0].visitor
	for _, e := range es[1:] {
		// Identity check: Runs shares one lockedVisitor across workers;
		// merging it into itself must be a no-op, not a double count.
		if e.visitor != merged {
			merged.Merge(e.visitor)
		}
	}

	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	if errors.Is(err, errStopped) {
		err = nil
	}
	return merged, err
}

// work is one worker's loop: pop a branch, explore it to completion, repeat
// until the pool drains or a terminal condition (visitor stop, engine
// error) closes it.
func (e *explorer) work() {
	for {
		eng, ok := e.pool.next()
		if !ok {
			return
		}
		if err := e.dfs(eng); err != nil {
			// errStopped has already set shared.stop, so sibling workers
			// quit at their next branch/run boundary; close wakes the
			// parked ones. Any other error is a real failure and likewise
			// terminates the exploration.
			e.shared.stop.Store(true)
			e.pool.close(err)
			return
		}
	}
}
