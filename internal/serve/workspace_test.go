package serve

import (
	"context"
	"errors"
	"testing"

	"hkpr/internal/core"
)

// BenchmarkServeCachedGraphQuery measures the steady-state serving hot path
// on a loaded (cached) graph: every iteration executes the estimator end to
// end (NoCache), exercising the pooled workspace, the CPU gate and the
// admission machinery.  The allocs/op of this benchmark is the acceptance
// number for the zero-allocation workspace refactor (≥90% below the
// map-based implementation).
func BenchmarkServeCachedGraphQuery(b *testing.B) {
	e := newTestEngine(b, Config{Workers: 1, CacheBytes: -1})
	ctx := context.Background()
	req := Request{Seed: 7, Method: MethodTEA, NoCache: true}
	if _, err := e.Do(ctx, req); err != nil { // warm pools and weight table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCachedHitZeroCopy is the same query answered from the result
// cache — the true steady state for repeated identical queries, and the
// anchor for the zero-copy hit contract: every hit shares the one cached
// flat score vector (asserted via backing-array identity), so the hit path
// allocates only the caller's Response copy.
func BenchmarkServeCachedHitZeroCopy(b *testing.B) {
	e := newTestEngine(b, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Seed: 7, Method: MethodTEA}
	first, err := e.Do(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	shared := &first.Result.Scores[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := e.Do(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected a cache hit")
		}
		if &resp.Result.Scores[0] != shared {
			b.Fatal("cache hit copied the score vector; zero-copy contract broken")
		}
	}
}

// TestServeSteadyStateAllocations guards the serving hot path with
// AllocsPerRun: a repeated cached-graph query must cost O(1) steady-state
// allocations — a cache hit is a handful (response copy), and even a full
// NoCache execution stays a small constant independent of the work done.
func TestServeSteadyStateAllocations(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	ctx := context.Background()

	hit := Request{Seed: 7, Method: MethodTEA}
	if _, err := e.Do(ctx, hit); err != nil {
		t.Fatal(err)
	}
	hitAllocs := testing.AllocsPerRun(10, func() {
		resp, err := e.Do(ctx, hit)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatal("expected cache hit")
		}
	})
	// Zero-copy contract: a hit shares the cached flat vector, so the only
	// allocations left are the caller's private Response copy.  Measured 2;
	// the guard leaves one alloc of slack and no more.
	hitLimit := 3.0
	if raceEnabled {
		hitLimit = 12 // race-detector bookkeeping inflates the count
	}
	if hitAllocs > hitLimit {
		t.Fatalf("cache-hit allocations = %v, want zero-copy (≤ %v)", hitAllocs, hitLimit)
	}

	miss := Request{Seed: 7, Method: MethodTEA, NoCache: true}
	if _, err := e.Do(ctx, miss); err != nil {
		t.Fatal(err)
	}
	missAllocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Do(ctx, miss); err != nil {
			t.Fatal(err)
		}
	})
	// Full execution: Result + flat score-vector materialization + task/
	// context/response plumbing.  The map-based implementation sat in the
	// thousands, the map-at-the-boundary era at 42; the flat vector measures
	// 33, and the guard is pinned tight so regressions cannot hide under an
	// old ceiling.
	missLimit := 36.0
	if raceEnabled {
		missLimit = 200 // race-detector bookkeeping inflates the count
	}
	if missAllocs > missLimit {
		t.Fatalf("NoCache execution allocations = %v, want small constant (≤ %v)", missAllocs, missLimit)
	}
	t.Logf("cache-hit allocs/op = %v, execution allocs/op = %v", hitAllocs, missAllocs)
}

// TestResponseMapsAreIndependentCopies checks a query's returned Result (and
// sweep) are detached from the pooled workspace: mutating them must not
// corrupt subsequent queries that reuse the same workspace slabs.
func TestResponseMapsAreIndependentCopies(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheBytes: -1})
	ctx := context.Background()
	req := Request{Seed: 7, Method: MethodTEA, NoCache: true, Sweep: true}

	first, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := append(core.ScoreVector(nil), first.Result.Scores...)
	// Vandalize everything the caller can reach.
	for i := range first.Result.Scores {
		first.Result.Scores[i].Score = -1
	}
	for i := range first.Sweep.Order {
		first.Sweep.Order[i] = -1
	}

	second, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Result.Scores) != len(want) {
		t.Fatalf("support changed after caller mutation: %d != %d", len(second.Result.Scores), len(want))
	}
	for i, e := range want {
		if got := second.Result.Scores[i]; got != e {
			t.Fatalf("score at node %d corrupted by caller mutation: %v != %v", e.Node, got, e)
		}
	}
}

// TestCancellationReturnsWorkspace aborts a heavy query mid-flight and
// checks the pooled workspace is checked back in: the engine's
// workspaces-in-use gauge must drain to zero, so abandoned queries cannot
// leak slabs.
func TestCancellationReturnsWorkspace(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheBytes: -1})
	// Hold the worker at the execution gate, cancel the caller, then release:
	// the estimator starts on a canceled context and unwinds through the
	// workspace checkout deterministically.
	entered := make(chan struct{})
	gate, release := gateExecutions(t)
	e.execGate = func(*Request) {
		close(entered)
		<-gate
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		// A tiny delta makes the push effectively unbounded without
		// cancellation, so completing would hang the test rather than pass it.
		_, err := e.Do(ctx, Request{Seed: 2, Method: MethodTEA, NoCache: true,
			Opts: core.Options{Delta: 1e-10}})
		errCh <- err
	}()
	<-entered
	cancel()
	release()
	if err := <-errCh; !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected cancellation, got %v", err)
	}
	e.execGate = nil
	// The worker returns the workspace after the estimator unwinds; poll
	// briefly since the caller can observe the error first.
	waitForZeroWorkspaces(t, e)
	if snap := e.Snapshot(); snap.WorkspacesInUse != 0 {
		t.Fatalf("snapshot reports %d workspaces in use", snap.WorkspacesInUse)
	}

	// The engine must still serve correctly with the recycled workspace.
	resp, err := e.Do(context.Background(), Request{Seed: 3, Method: MethodTEA, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Scores) == 0 {
		t.Fatal("query on recycled workspace returned empty scores")
	}
}

// TestAdaptiveEWMASmoothsBurstyLoad is the acceptance test for the EWMA
// satellite: under a bursty queue-depth signal alternating between empty and
// deep, the instantaneous formula (α=1) whipsaws P between full width and
// serial, while a smoothed engine (small α) settles into a narrow band.
func TestAdaptiveEWMASmoothsBurstyLoad(t *testing.T) {
	const tokens = 8
	bursty := func(i int) int { // alternating 0, 9, 0, 9, ...
		if i%2 == 1 {
			return 9
		}
		return 0
	}

	spread := func(e *Engine) int {
		min, max := tokens+1, 0
		// Warm the EWMA into its steady regime before measuring.
		for i := 0; i < 50; i++ {
			e.adaptiveP(tokens, bursty(i))
		}
		for i := 50; i < 100; i++ {
			p := e.adaptiveP(tokens, bursty(i))
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		return max - min
	}

	raw := newTestEngine(t, Config{Workers: 1, CPUTokens: tokens, Adaptive: true, CacheBytes: -1})
	smooth := newTestEngine(t, Config{Workers: 1, CPUTokens: tokens, Adaptive: true, AdaptiveEWMA: 0.1, CacheBytes: -1})

	rawSpread := spread(raw)
	smoothSpread := spread(smooth)
	if rawSpread < 6 {
		t.Fatalf("instantaneous adaptive P should oscillate under bursty load; spread = %d", rawSpread)
	}
	if smoothSpread > 1 {
		t.Fatalf("EWMA-smoothed adaptive P still oscillates: spread = %d (raw spread %d)", smoothSpread, rawSpread)
	}

	// The smoothed depth is surfaced for observability.
	if ewma := smooth.Snapshot().QueueDepthEWMA; ewma <= 0 {
		t.Fatalf("snapshot QueueDepthEWMA = %v, want > 0 after load", ewma)
	}
}
