package serve

import (
	"context"
	"errors"
	"net/http"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestShutdownDrainsGoroutines is the graceful-shutdown leak regression:
// start the server, put proposals in flight, Shutdown, and require (a)
// every in-flight instance resolves, (b) late proposals answer 503 rather
// than hang, and (c) the goroutine count returns to the pre-server
// baseline — detectors, delivery goroutines, shard workers and waiters all
// join.
func TestShutdownDrainsGoroutines(t *testing.T) {
	before := stdruntime.NumGoroutine()

	srv, err := New(Config{
		N: 3, T: 1,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		ProposeTimeout:  10 * time.Second,
		Conform:         true,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		BaseURL: "http://serve.test",
		HTTP:    &http.Client{Transport: inprocTransport{h: srv.Handler()}},
	}
	ctx := context.Background()

	// In-flight work: a few proposals plus concurrent waiters blocked on
	// their decisions.
	var wg sync.WaitGroup
	ids := make([]uint64, 4)
	for i := range ids {
		id, err := client.Propose(ctx, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if _, err := client.Instance(ctx, id, true); err != nil {
				t.Errorf("waiter for %d: %v", id, err)
			}
		}(id)
	}

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	// Every in-flight instance decided during the drain.
	for _, id := range ids {
		st, err := client.Instance(ctx, id, false)
		if err != nil {
			t.Fatalf("Instance(%d) after drain: %v", id, err)
		}
		if !st.Done || st.Agreement != "reached" {
			t.Errorf("instance %d after drain: %+v, want decided", id, st)
		}
	}

	// A late proposal is refused immediately, not hung.
	start := time.Now()
	if _, err := client.Propose(ctx, 99); !errors.Is(err, ErrDraining) {
		t.Fatalf("late Propose = %v, want ErrDraining", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("late proposal took %v — that is a hang, not a refusal", since)
	}

	// Shutdown is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Goroutine drain, with retries: timers and netpoll strays settle
	// asynchronously (the obs_test leak check uses the same discipline).
	deadline := time.Now().Add(5 * time.Second)
	for {
		stdruntime.GC()
		now := stdruntime.NumGoroutine()
		if now <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := stdruntime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d now=%d — leak\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShutdownDeadline: a context that expires mid-drain returns its error
// while teardown continues in the background.
func TestShutdownDeadline(t *testing.T) {
	srv, client := newTestServer(t, nil)
	if _, err := client.Propose(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown(expired ctx) = %v, want context.Canceled", err)
	}
	// The background teardown still completes; the cleanup Close in
	// newTestServer would hang otherwise.
	select {
	case <-srv.Engine().Closed():
	case <-time.After(10 * time.Second):
		t.Fatal("engine never finished closing")
	}
}
