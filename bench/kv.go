package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/serve"
)

// kvParams is one workload through the serving daemon's KV API. Both run
// ssfd-serve with shipped defaults plus `-nodes 3 -t 1 -conform` and the
// detector timing every workload pins.
type kvParams struct {
	clients int
	// keys is how many keys each client owns and round-robins over; 0 puts
	// every client on the single key "hot".
	keys int
	// period, when set, makes each client an open loop firing one CAS per
	// period (client i offset by i*period/clients), timed from its due time;
	// zero is a closed loop.
	period time.Duration
	// limit is the latency limit of the open loop: an answer later than
	// this after its due time counts as failed.
	limit time.Duration
	// readShare is the share of closed-loop operations that are GETs.
	readShare float64
	// warm is how many operations each client completes before the window.
	warm int
}

var kvWorkloads = map[string]kvParams{
	"kv_write":     {clients: 2, keys: 64, period: 10 * time.Millisecond, limit: time.Second, warm: 50},
	"kv_hot_mixed": {clients: 2, readShare: 0.5, warm: 150},
}

const (
	kvNodes, kvT = 3, 1
	// opTimeout bounds one request so a stalled daemon fails operations
	// instead of hanging the run.
	opTimeout = 5 * time.Second
	// probeReads is how many unloaded GETs measure the read path after the
	// window, over loopback and in-process: their difference is what HTTP adds.
	probeReads = 300
)

// openLoopDue is when client i of clients fires its k-th operation: the
// schedule is fixed by the window start alone, never by when replies arrive.
func openLoopDue(start int64, period time.Duration, client, clients, k int) int64 {
	return start + int64(period)*int64(client)/int64(clients) + int64(period)*int64(k)
}

// --- targets: the child daemon, or serve.New in this process ---

// kvTarget is the server a pass drives.
type kvTarget interface {
	// client returns a serve.Client on a connection of its own.
	client() *serve.Client
	// cpu is the server process's CPU time so far.
	cpu() time.Duration
	status() (*serve.StatusReport, error)
	// stop shuts the server down and reports whether it ended cleanly.
	stop() error
}

// daemon is cmd/ssfd-serve as a child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stdout strings.Builder
	copied chan struct{}
}

// buildDaemon compiles cmd/ssfd-serve into the build directory.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir(), "ssfd-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ssfd-serve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build ssfd-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// startDaemon starts the daemon on a free loopback port and waits until
// /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{copied: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-nodes", fmt.Sprint(kvNodes), "-t", fmt.Sprint(kvT), "-conform",
		"-heartbeat", heartbeatPeriod.String(), "-suspect-timeout", suspectTimeout.String())
	d.cmd.Stderr = os.Stderr
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ssfd-serve: %w", err)
	}
	// The first line names the listener; the rest (the drain summary) is kept
	// for the error message of an unclean exit.
	rd := bufio.NewReader(pipe)
	first, err := rd.ReadString('\n')
	go func() {
		defer close(d.copied)
		for {
			line, err := rd.ReadString('\n')
			d.stdout.WriteString(line)
			if err != nil {
				return
			}
		}
	}()
	if i := strings.Index(first, "http://"); err == nil && i >= 0 {
		d.url = strings.TrimSpace(first[i:])
	} else {
		d.kill()
		return nil, fmt.Errorf("ssfd-serve did not announce its listener (got %q, %v)", first, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ssfd-serve never answered /healthz: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.copied
	_ = d.cmd.Wait() // killed: the exit status says nothing
}

func (d *daemon) client() *serve.Client {
	// One keep-alive connection per client: the generator never holds more
	// connections than it has clients.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &serve.Client{BaseURL: d.url, HTTP: &http.Client{Transport: tr}}
}

func (d *daemon) cpu() time.Duration {
	c, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return c
}

func (d *daemon) status() (*serve.StatusReport, error) {
	return (&serve.Client{BaseURL: d.url}).Status(context.Background())
}

// stop sends SIGTERM; a daemon that drained and saw no conformance
// violation exits 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	timer := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.copied
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("ssfd-serve did not exit 0 on SIGTERM: %v\n%s", err, d.stdout.String())
	}
	return nil
}

// inproc is serve.New in this process, driven through its handler without
// sockets.
type inproc struct {
	srv *serve.Server
}

// startInproc builds the server the daemon would build from its flags; a
// tracer installs its wrappers in the two seams serve.Config passes through.
func startInproc(tr *tracer) (*inproc, error) {
	cfg := serve.Config{N: kvNodes, T: kvT, Conform: true,
		HeartbeatPeriod: heartbeatPeriod, SuspectTimeout: suspectTimeout}
	if tr != nil {
		var alg rounds.Algorithm = consensus.FloodSetWS{}
		cfg.Algorithm = tracedAlgorithm{inner: alg, tr: tr}
		cfg.Detector = tr.detectorSpec(runtime.HeartbeatDetector())
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	return &inproc{srv: srv}, nil
}

// handlerSpan is filled by handlerTransport with the span of the
// Handler().ServeHTTP call that answered the request carrying it.
type handlerSpan struct{ start, end int64 }

type handlerSpanKey struct{}

type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t0 := now()
	t.h.ServeHTTP(rec, req)
	t1 := now()
	if hs, ok := req.Context().Value(handlerSpanKey{}).(*handlerSpan); ok {
		hs.start, hs.end = t0, t1
	}
	return rec.Result(), nil
}

func (s *inproc) client() *serve.Client {
	return &serve.Client{BaseURL: "http://inproc", HTTP: &http.Client{Transport: handlerTransport{s.srv.Handler()}}}
}

func (s *inproc) cpu() time.Duration { return selfCPU() }

func (s *inproc) status() (*serve.StatusReport, error) {
	st := s.srv.Status()
	return &st, nil
}

func (s *inproc) stop() error { return s.srv.Close() }

// --- the load generator ---

// kvClient is one generator goroutine and what it saw.
type kvClient struct {
	id   int
	pass *kvPass
	c    *serve.Client
	rng  *rand.Rand
	keys []string
	turn int
	// head is what the client takes each key's value to be: what it last
	// wrote, or on the hot key what it last saw (reads, wins and lost races
	// all refresh it). A missing entry is "absent".
	head map[string]int64
	next int64 // next value to write: unique across the run

	records []serve.OpRecord

	committed           []commit // CAS answered ok in the window (at is still absolute)
	reads, conflicts    sample   // latency by outcome, in the window
	late                sample   // open loop: actual send - due
	casHandler, casSelf sample   // in-process spans
	conflictHandler     sample
	attempted, failed   int64
}

// kvPass is one server brought up, prefilled, warmed, measured, checked and
// shut down.
type kvPass struct {
	p      kvParams
	cfg    runConfig
	target kvTarget
	tr     *tracer
	clock  atomic.Int64 // logical stamps for the linearizability check

	clients  []*kvClient
	counting atomic.Bool // operations completing now belong to the window

	winStart, winEnd int64
	serverCPU        time.Duration
	meter            meter
	rss0, rss1       float64
	probe            sample // unloaded read latency (loopback) or handler span (in-process)
	final            *serve.StatusReport
}

func newKVPass(p kvParams, cfg runConfig, target kvTarget, tr *tracer) *kvPass {
	kp := &kvPass{p: p, cfg: cfg, target: target, tr: tr}
	for i := 0; i < p.clients; i++ {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))
		c := &kvClient{id: i, pass: kp, c: target.client(), rng: rng, head: make(map[string]int64)}
		// Values are unique per run (the traced pass matches an operation
		// to its consensus instance by its proposal) and differ with the seed.
		c.next = (int64(rng.Int31())<<1|int64(i))<<24 + 1
		if p.keys == 0 {
			c.keys = []string{"hot"}
		} else {
			for _, k := range rng.Perm(p.keys) {
				c.keys = append(c.keys, fmt.Sprintf("c%d-k%02d", i, k))
			}
		}
		kp.clients = append(kp.clients, c)
	}
	return kp
}

// each runs fn on every client concurrently and waits for all of them.
func (kp *kvPass) each(fn func(c *kvClient)) {
	var wg sync.WaitGroup
	for _, c := range kp.clients {
		wg.Add(1)
		go func(c *kvClient) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func (c *kvClient) nextKey() string {
	k := c.keys[c.turn%len(c.keys)]
	c.turn++
	return k
}

// doCAS issues one CAS with old = the head the client holds and files the
// outcome. due is the instant latency is timed from (the send time in a
// closed loop).
func (c *kvClient) doCAS(key string, due int64) {
	var old *int64
	if h, ok := c.head[key]; ok {
		old = &h
	}
	val := c.next
	c.next++
	rec := serve.OpRecord{Client: c.id, Kind: serve.OpCAS, Key: key, Old: old, New: val}
	hs := &handlerSpan{}
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), handlerSpanKey{}, hs), opTimeout)
	rec.Start = c.pass.clock.Add(1)
	resp, err := c.c.CAS(ctx, key, old, val)
	done := now()
	rec.End = c.pass.clock.Add(1)
	cancel()
	lat := done - due
	counting := c.pass.counting.Load()
	if counting {
		c.attempted++
	}
	switch {
	case err != nil:
		rec.Err = err.Error()
		if counting {
			c.failed++
		}
	case resp.OK:
		rec.OK, rec.Version, rec.Value = true, resp.Version, resp.Value
		c.head[key] = val
		var it *instTrace
		if c.pass.tr != nil {
			it = c.pass.tr.finish(uint64(val), "serve.cas", hs.start, hs.end)
		}
		if !counting {
			break
		}
		if c.pass.p.limit > 0 && lat > int64(c.pass.p.limit) {
			c.failed++ // committed, but past the latency limit
			break
		}
		c.committed = append(c.committed, commit{at: time.Duration(done), lat: lat})
		if hs.end != 0 {
			c.casHandler.add(hs.end - hs.start)
			if it != nil && it.last > it.first {
				c.casSelf.add((hs.end - hs.start) - (it.last - it.first))
			}
		}
	default: // 409: the head the CAS lost to
		rec.Version, rec.Value = resp.Version, resp.Value
		if resp.Version > 0 {
			c.head[key] = resp.Value
		} else {
			delete(c.head, key)
		}
		if !counting {
			break
		}
		if c.pass.p.keys > 0 {
			c.failed++ // nobody else writes this client's keys: a 409 is unexpected
			break
		}
		c.conflicts.add(lat)
		if hs.end != 0 {
			c.conflictHandler.add(hs.end - hs.start)
		}
	}
	c.records = append(c.records, rec)
}

// doGet reads a key's head and refreshes the client's view of it.
func (c *kvClient) doGet(key string) {
	rec := serve.OpRecord{Client: c.id, Kind: serve.OpRead, Key: key}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	t0 := now()
	rec.Start = c.pass.clock.Add(1)
	ver, err := c.c.Get(ctx, key)
	done := now()
	rec.End = c.pass.clock.Add(1)
	cancel()
	counting := c.pass.counting.Load()
	if counting {
		c.attempted++
	}
	switch {
	case errors.Is(err, serve.ErrKeyNotFound):
		rec.OK = true
		delete(c.head, key)
	case err != nil:
		rec.Err = err.Error()
		if counting {
			c.failed++
		}
	default:
		rec.OK, rec.Version, rec.Value = true, ver.Version, int64(ver.Value)
		c.head[key] = int64(ver.Value)
		if counting {
			c.reads.add(done - t0)
		}
	}
	c.records = append(c.records, rec)
}

// step is one closed-loop operation: by the seed, a GET or a CAS.
func (c *kvClient) step() {
	key := c.nextKey()
	if c.rng.Float64() < c.pass.p.readShare {
		c.doGet(key)
	} else {
		c.doCAS(key, now())
	}
}

// prefill creates every key the client owns, so that the window holds only
// CAS that advance a key; on the shared hot key the first client creates it
// and the others read it. A quick run leaves its own keys to be created by
// the first CAS that reaches them.
func (c *kvClient) prefill() {
	for _, key := range c.keys {
		if c.pass.p.keys > 0 && c.pass.cfg.quick {
			return
		}
		if c.pass.p.keys == 0 && c.id > 0 {
			for c.doGet(key); len(c.head) == 0; c.doGet(key) {
				time.Sleep(time.Millisecond) // client 0 has not created it yet
			}
			continue
		}
		c.doCAS(key, now())
	}
}

// fire runs the client's open loop from start until end.
func (c *kvClient) fire(start, end int64) {
	p := c.pass.p
	for k := 0; ; k++ {
		due := openLoopDue(start, p.period, c.id, p.clients, k)
		if due >= end {
			return
		}
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if c.pass.counting.Load() {
			c.late.add(now() - due)
		}
		c.doCAS(c.nextKey(), due)
	}
}

// warmUp prefills the keys and completes p.warm operations per client.
func (kp *kvPass) warmUp() {
	kp.each((*kvClient).prefill)
	warm := kp.cfg.warm(kp.p.warm)
	if kp.p.period > 0 {
		start := now()
		end := start + int64(kp.p.period)*int64(warm)
		kp.each(func(c *kvClient) { c.fire(start, end) })
		return
	}
	kp.each(func(c *kvClient) {
		for i := 0; i < warm; i++ {
			c.step()
		}
	})
}

// measure runs the window.
func (kp *kvPass) measure(window time.Duration, profile bool) {
	kp.meter = meter{tr: kp.tr, profile: profile}
	pid := 0
	switch t := kp.target.(type) {
	case *inproc:
		kp.meter.stats = t.srv.Engine().Stats
	case *daemon:
		pid = t.cmd.Process.Pid
		kp.rss0, _ = procRSSMB(pid)
	}
	kp.meter.begin()
	cpu0 := kp.target.cpu()
	kp.counting.Store(true)
	kp.winStart = now()
	end := kp.winStart + int64(window)
	if kp.p.period > 0 {
		kp.each(func(c *kvClient) { c.fire(kp.winStart, end) })
	} else {
		kp.each(func(c *kvClient) {
			for now() < end {
				c.step()
			}
		})
	}
	kp.winEnd = now()
	kp.counting.Store(false)
	kp.serverCPU = kp.target.cpu() - cpu0
	kp.meter.end()
	if pid != 0 {
		kp.rss1, _ = procRSSMB(pid)
	}
}

// probeReads times unloaded GETs of one key on one connection: round trips
// over loopback against the daemon, handler spans in-process.
func (kp *kvPass) probeReads() error {
	c := kp.clients[0]
	key := c.keys[0]
	for i := 0; i < probeReads; i++ {
		hs := &handlerSpan{}
		ctx := context.WithValue(context.Background(), handlerSpanKey{}, hs)
		t0 := now()
		if _, err := c.c.Get(ctx, key); err != nil {
			return fmt.Errorf("probe read of %s: %w", key, err)
		}
		if hs.end != 0 {
			kp.probe.add(hs.end - hs.start)
		} else {
			kp.probe.add(now() - t0)
		}
	}
	return nil
}

// finish checks the pass and shuts the server down: every recorded
// operation against the chains the server holds, a clean conformance
// summary, a detector that stayed perfect, and a clean exit.
func (kp *kvPass) finish() []string {
	var bad []string
	ctx := context.Background()
	reader := kp.target.client()
	chains := make(map[string][]serve.KVVersion)
	var records []serve.OpRecord
	for _, c := range kp.clients {
		records = append(records, c.records...)
		for _, key := range c.keys {
			if _, ok := chains[key]; ok {
				continue
			}
			chain, err := reader.History(ctx, key)
			if err != nil && !errors.Is(err, serve.ErrKeyNotFound) { // a key no CAS reached has no chain
				bad = append(bad, fmt.Sprintf("history of %s: %v", key, err))
			}
			chains[key] = chain
		}
	}
	if err := serve.CheckLinearizable(chains, records); err != nil {
		bad = append(bad, "not linearizable: "+err.Error())
	}
	st, err := kp.target.status()
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("status: %v", err))
	default:
		kp.final = st
		if st.Conform == nil || !st.Conform.Clean {
			bad = append(bad, fmt.Sprintf("conformance summary is not clean: %+v", st.Conform))
		}
		if st.Engine.AgreementViolated > 0 {
			bad = append(bad, fmt.Sprintf("engine tallied %d agreement violations", st.Engine.AgreementViolated))
		}
		if !st.Engine.DetectorWasPerfect {
			bad = append(bad, fmt.Sprintf("detector lost perfection: %d false suspicions", st.Engine.FalseSuspicions))
		}
	}
	if err := kp.target.stop(); err != nil {
		bad = append(bad, err.Error())
	}
	return bad
}

// kvTally is the window's tallies merged over the clients.
type kvTally struct {
	committed           []commit // at is an offset from the window start
	reads, conflicts    sample
	late                sample
	casHandler, casSelf sample
	conflictHandler     sample
	attempted, failed   int64
}

func (kp *kvPass) tally() kvTally {
	var t kvTally
	for _, c := range kp.clients {
		for _, cm := range c.committed {
			t.committed = append(t.committed, commit{at: cm.at - time.Duration(kp.winStart), lat: cm.lat})
		}
		for _, pair := range []struct{ dst, src *sample }{
			{&t.reads, &c.reads}, {&t.conflicts, &c.conflicts}, {&t.late, &c.late},
			{&t.casHandler, &c.casHandler}, {&t.casSelf, &c.casSelf}, {&t.conflictHandler, &c.conflictHandler},
		} {
			pair.dst.v = append(pair.dst.v, pair.src.v...)
		}
		t.attempted += c.attempted
		t.failed += c.failed
	}
	return t
}

// casLatency is due (or send) to ok over every commit of the window.
func (t kvTally) casLatency() *sample {
	var s sample
	for _, c := range t.committed {
		s.add(c.lat)
	}
	return &s
}

// series cuts the window into its seconds.
func (kp *kvPass) series(t kvTally) perSecond {
	return bySecond(t.committed, kp.windowDur())
}

func (kp *kvPass) windowDur() time.Duration { return time.Duration(kp.winEnd - kp.winStart) }

// roundsPerCommit reads the daemon's own cost accounting once it is
// quiescent: data messages per node decision over n-1.
func (kp *kvPass) roundsPerCommit() float64 {
	if kp.final == nil || kp.final.Engine.Cost == nil {
		return 0
	}
	return kp.final.Engine.Cost.DataMessagesPerDecision / float64(kvNodes-1)
}

// serveTarget starts the server a pass drives: the child daemon, built
// first, or serve.New in this process for a quick run.
func serveTarget(cfg runConfig) (kvTarget, error) {
	if cfg.quick {
		return startInproc(nil)
	}
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	return startDaemon(bin)
}

// kvSetup is one timed set-up: build, start until /healthz answers, prefill
// and warm-up. The returned pass is ready to measure.
func kvSetup(p kvParams, cfg runConfig) (*kvPass, time.Duration, error) {
	t0 := time.Now()
	target, err := serveTarget(cfg)
	if err != nil {
		return nil, 0, err
	}
	kp := newKVPass(p, cfg, target, nil)
	kp.warmUp()
	return kp, time.Since(t0), nil
}

// runKVPass is the whole life of one pass against a started target.
func runKVPass(p kvParams, cfg runConfig, target kvTarget, tr *tracer, window time.Duration, profile bool) (*kvPass, kvTally, []string, error) {
	kp := newKVPass(p, cfg, target, tr)
	kp.warmUp()
	kp.measure(window, profile)
	err := kp.probeReads()
	bad := kp.finish()
	return kp, kp.tally(), bad, err
}

// runKVWorkload is one benchmark run of a kv workload.
func runKVWorkload(name string, cfg runConfig) (*runResult, error) {
	p := kvWorkloads[name]
	res := newResult(name, cfg)
	m := res.Metrics
	if !cfg.traced {
		var kp *kvPass
		var setups []float64
		for i := 0; i < cfg.setups(); i++ {
			if kp != nil {
				// A timed set-up that is not the last is checked and thrown away.
				if bad := kp.finish(); len(bad) > 0 {
					return nil, fmt.Errorf("set-up pass: %s", strings.Join(bad, "; "))
				}
			}
			var d time.Duration
			var err error
			if kp, d, err = kvSetup(p, cfg); err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		kp.measure(cfg.window, false)
		t := kp.tally()
		res.absorb(t.attempted, t.failed, kp.finish())
		res.Series = kp.series(t)
		endToEndMetrics(m, res.Series, len(t.committed), setups, kp.roundsPerCommit())
		return res, nil
	}

	// Traced run. The daemon pass gives what only the real process shows
	// (loopback latency, its CPU and memory); the in-process pair — without
	// and with the wrappers — gives the handler spans, the layer busy times
	// and the tracing overhead; a short wrapped engine run at the daemon's
	// (n, t, W) captures the packets the standalone layers replay, because
	// serve.Config passes no Network through.
	d, err := serveTarget(cfg)
	if err != nil {
		return nil, err
	}
	dp, dt, bad, err := runKVPass(p, cfg, d, nil, cfg.window*4/10, false)
	if err != nil {
		return nil, err
	}
	res.absorb(dt.attempted, dt.failed, bad)

	ref, err := startInproc(nil)
	if err != nil {
		return nil, err
	}
	rp, rt, bad, err := runKVPass(p, cfg, ref, nil, cfg.window*3/10, true)
	if err != nil {
		return nil, err
	}
	res.absorb(rt.attempted, rt.failed, bad)

	tr := newTracer(1)
	tr.keyOf = func(cfg rounds.ProcConfig) uint64 { return uint64(cfg.Initial) }
	tsrv, err := startInproc(tr)
	if err != nil {
		return nil, err
	}
	tp, tt, bad, err := runKVPass(p, cfg, tsrv, tr, cfg.window*3/10, false)
	if err != nil {
		return nil, err
	}
	res.absorb(tt.attempted, tt.failed, bad)

	cas := len(dt.committed)
	ops := float64(cas + dt.reads.n() + dt.conflicts.n())
	m.set("serve.read_p50_us", float64(dt.reads.pct(50))/1e3, dt.reads.n())
	m.set("serve.read_p95_us", float64(dt.reads.pct(95))/1e3, dt.reads.n())
	m.set("serve.conflict_p50_us", float64(dt.conflicts.pct(50))/1e3, dt.conflicts.n())
	m.set("serve.conflict_share", ratio(float64(dt.conflicts.n()), float64(dt.conflicts.n()+cas)), dt.conflicts.n()+cas)
	m.set("serve.daemon_cpu_us_per_op", ratio(float64(dp.serverCPU.Microseconds()), ops), int(ops))
	m.set("process.cpu_us_per_commit", ratio(float64(dp.serverCPU.Microseconds()), float64(cas)), cas)
	m.set("serve.rss_end_mb", dp.rss1, 0)
	m.set("serve.rss_growth_mb", dp.rss1-dp.rss0, 0)
	if dp.final != nil && dp.final.Engine.Cost != nil {
		m.set("serve.msgs_per_decision", dp.final.Engine.Cost.MessagesPerDecision, 0)
	}
	m.set("loadgen.late_us_p50", float64(dt.late.pct(50))/1e3, dt.late.n())
	m.set("loadgen.late_us_p95", float64(dt.late.pct(95))/1e3, dt.late.n())
	m.set("loadgen.cpu_share", ratio(dp.meter.cpu.Seconds(), dp.meter.cpu.Seconds()+dp.serverCPU.Seconds()), 0)

	m.set("serve.read_handler_ns_p50", float64(tp.probe.pct(50)), tp.probe.n())
	m.set("serve.http_overhead_us_p50", float64(dp.probe.pct(50)-tp.probe.pct(50))/1e3, dp.probe.n())
	m.set("serve.conflict_handler_us_p50", float64(tt.conflictHandler.pct(50))/1e3, tt.conflictHandler.n())
	m.set("serve.cas_handler_us_p50", float64(tt.casHandler.pct(50))/1e3, tt.casHandler.n())
	m.set("serve.cas_self_us_p50", float64(tt.casSelf.pct(50))/1e3, tt.casSelf.n())

	lat, overLoopback := rt.casLatency(), dt.casLatency()
	m.set("serve.http_cas_overhead_us_p50", float64(overLoopback.pct(50)-lat.pct(50))/1e3, overLoopback.n())
	m.set("engine.commit_p99_us", float64(lat.pct(99))/1e3, lat.n())
	rp.meter.processMetrics(m, float64(len(rt.committed)))
	tp.meter.tracedMetrics(m, float64(len(tt.committed)))
	gapMetrics(m, tr)
	m.set("trace.overhead_share", overheadShare(p.period == 0, rp.series(rt), tp.series(tt)), 0)

	// The capture run is a correctness-checked engine_lat window, just short.
	ctr := newTracer(1)
	cp, err := runEnginePass(engineWorkloads["engine_lat"], cfg, ctr, cfg.layerBudget(), false)
	if err != nil {
		return nil, err
	}
	res.absorb(0, 0, cp.check())
	commitsPerSec := ratio(float64(len(tt.committed)), tp.windowDur().Seconds())
	if err := standaloneLayers(m, ctr.packets, kvNodes, commitsPerSec, cfg.layerBudget()); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(outPath("trace_" + name + ".json")); err != nil {
		return nil, err
	}
	return res, nil
}
