package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hkpr/internal/core"
	"hkpr/internal/graph"
)

// waitForZeroWorkspaces polls the workspaces-in-use gauge down to zero; the
// worker can return its workspace slightly after callers observe completion.
func waitForZeroWorkspaces(t *testing.T, e *Engine) {
	t.Helper()
	waitFor(t, "every workspace to be returned", func() bool { return e.wsOut.Load() == 0 })
}

// assertScoresEqual demands bit-identical score vectors — the batched serving
// path inherits the core batch engine's exact-demultiplexing guarantee, so no
// tolerance is allowed.
func assertScoresEqual(t *testing.T, want, got core.ScoreVector) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("support size %d != %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("score[%d] = %+v, want bit-identical %+v", i, got[i], w)
		}
	}
}

// TestServeBatchWindowGroupsQueries is the serving-layer acceptance test for
// the batching window: k concurrent queries with identical options but
// distinct seeds must share one batched core execution, and every caller must
// receive exactly the response an unbatched engine would have produced.
func TestServeBatchWindowGroupsQueries(t *testing.T) {
	g := testGraph(t)
	est := testEstimator(t, g)
	ref, err := New(est, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	const k = 4
	// BatchMaxK == k: the size cap flushes the group the instant the last
	// query arrives, so the generous window never actually elapses.
	batched, err := New(est, Config{Workers: 2, BatchWindow: 5 * time.Second, BatchMaxK: k})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	seeds := [k]graph.NodeID{3, 5, 9, 11}
	for _, method := range []string{MethodTEA, MethodTEAPlus} {
		var wg sync.WaitGroup
		resps := [k]*Response{}
		errs := [k]error{}
		for i, seed := range seeds {
			wg.Add(1)
			go func(i int, seed graph.NodeID) {
				defer wg.Done()
				resps[i], errs[i] = batched.Do(context.Background(),
					Request{Seed: seed, Method: method, Sweep: true, Trace: true})
			}(i, seed)
		}
		wg.Wait()
		for i, seed := range seeds {
			if errs[i] != nil {
				t.Fatalf("%s seed %d: %v", method, seed, errs[i])
			}
			resp := resps[i]
			if resp.Seed != seed {
				t.Fatalf("%s: response demultiplexed to wrong seed: got %d want %d", method, resp.Seed, seed)
			}
			if resp.Trace == nil || resp.Trace.Batch != k {
				t.Fatalf("%s seed %d: trace batch = %+v, want Batch=%d", method, seed, resp.Trace, k)
			}
			if resp.Sweep == nil || len(resp.Sweep.Cluster) == 0 {
				t.Fatalf("%s seed %d: missing sweep result", method, seed)
			}
			want, err := ref.Do(context.Background(), Request{Seed: seed, Method: method, Sweep: true})
			if err != nil {
				t.Fatal(err)
			}
			assertScoresEqual(t, want.Result.Scores, resp.Result.Scores)
			if len(want.Sweep.Cluster) != len(resp.Sweep.Cluster) {
				t.Fatalf("%s seed %d: sweep cluster size %d != unbatched %d",
					method, seed, len(resp.Sweep.Cluster), len(want.Sweep.Cluster))
			}
		}
	}

	snap := batched.Snapshot()
	if snap.BatchExecutions != 2 || snap.BatchedQueries != 2*k {
		t.Fatalf("batch metrics: executions=%d queries=%d, want 2/%d", snap.BatchExecutions, snap.BatchedQueries, 2*k)
	}
	if snap.BatchPending != 0 {
		t.Fatalf("batch pending = %d after completion, want 0", snap.BatchPending)
	}
	if snap.Executions != int64(2*k) {
		t.Fatalf("executions = %d, want %d (every batched member counts)", snap.Executions, 2*k)
	}

	var sb strings.Builder
	batched.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"hkpr_serve_batch_executions_total 2",
		"hkpr_serve_batch_queries_total 8",
		"hkpr_serve_batch_size_count 2",
		`hkpr_serve_batch_size_bucket{le="4"} 2`,
		"hkpr_serve_batch_pending 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q", want)
		}
	}
	waitForZeroWorkspaces(t, batched)
}

// TestServeBatchCoalescingInteraction checks the ordering contract between
// coalescing and the batching window: identical concurrent queries dedup onto
// one in-flight member before they ever reach the window, while distinct
// seeds batch together.
func TestServeBatchCoalescingInteraction(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, BatchWindow: 5 * time.Second, BatchMaxK: 2})
	entered := make(chan struct{}, 1)
	gate, release := gateExecutions(t)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-gate
	}

	type out struct {
		resp *Response
		err  error
	}
	results := make(chan out, 3)
	do := func(seed graph.NodeID) {
		resp, err := e.Do(context.Background(), Request{Seed: seed, Method: MethodTEA})
		results <- out{resp, err}
	}
	// Two distinct seeds fill the group (BatchMaxK=2) and flush; the worker
	// parks at the execution gate with both flight entries live.
	go do(3)
	go do(7)
	<-entered
	// An identical third query must coalesce onto seed 3's in-flight member
	// rather than open a new batching group.
	go do(3)
	waitFor(t, "the duplicate query to coalesce onto the batched member", func() bool { return e.metrics.Coalesced.Load() > 0 })
	release()

	var coalesced int
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.Coalesced {
			coalesced++
			if r.resp.Seed != 3 {
				t.Fatalf("coalesced response for seed %d, want 3", r.resp.Seed)
			}
		}
	}
	if coalesced != 1 {
		t.Fatalf("coalesced callers = %d, want 1", coalesced)
	}
	snap := e.Snapshot()
	if snap.BatchExecutions != 1 || snap.BatchedQueries != 2 {
		t.Fatalf("batch metrics: executions=%d queries=%d, want 1/2", snap.BatchExecutions, snap.BatchedQueries)
	}
	if snap.Coalesced != 1 || snap.CacheMisses != 2 {
		t.Fatalf("coalesced=%d misses=%d, want 1/2", snap.Coalesced, snap.CacheMisses)
	}
}

// TestServeBatchMemberCanceledInWindow abandons one member while it waits in
// the batching window: its source is dropped before the shared execution
// starts, the surviving member completes bit-identically to a direct call,
// and the pooled workspace drains.
func TestServeBatchMemberCanceledInWindow(t *testing.T) {
	g := testGraph(t)
	est := testEstimator(t, g)
	e, err := New(est, Config{Workers: 1, BatchWindow: 5 * time.Second, BatchMaxK: 2, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A caller deadline already in the past: the member joins the window but
	// its task context is born canceled, so runBatch drops it at entry.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	victimErr := make(chan error, 1)
	go func() {
		_, err := e.Do(expired, Request{Seed: 3, Method: MethodTEA})
		victimErr <- err
	}()
	if err := <-victimErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("victim error = %v, want deadline exceeded", err)
	}
	// Wait until the victim actually occupies the window before the second
	// query fills the group.
	waitFor(t, "the victim to enter the batching window", func() bool { return e.Snapshot().BatchPending == 1 })

	resp, err := e.Do(context.Background(), Request{Seed: 7, Method: MethodTEA, Trace: true})
	if err != nil {
		t.Fatalf("survivor failed: %v", err)
	}
	direct, err := est.TEA(7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, direct.Scores, resp.Result.Scores)
	// The victim was dropped before execution, so the realized batch size —
	// in the trace and the metrics — counts only the surviving member.
	if resp.Trace.Batch != 1 {
		t.Fatalf("survivor trace batch = %d, want 1 (only live members count)", resp.Trace.Batch)
	}

	snap := e.Snapshot()
	if snap.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1 (the dropped member)", snap.Canceled)
	}
	if snap.BatchExecutions != 1 || snap.BatchedQueries != 1 {
		t.Fatalf("batch metrics: executions=%d queries=%d, want 1/1", snap.BatchExecutions, snap.BatchedQueries)
	}
	waitForZeroWorkspaces(t, e)
}

// TestServeBatchMemberCanceledMidExecution cancels one member after the
// batched execution has been admitted but before the estimator runs: the
// member's source context aborts only its own lane, the other member's result
// stays bit-identical to a direct call, and the workspace drains.
func TestServeBatchMemberCanceledMidExecution(t *testing.T) {
	g := testGraph(t)
	est := testEstimator(t, g)
	e, err := New(est, Config{Workers: 1, BatchWindow: 5 * time.Second, BatchMaxK: 2,
		CacheBytes: -1, CancelCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	entered := make(chan struct{}, 1)
	gate, release := gateExecutions(t)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-gate
	}

	victimCtx, cancelVictim := context.WithCancel(context.Background())
	defer cancelVictim()
	victimErr := make(chan error, 1)
	survivor := make(chan *Response, 1)
	go func() {
		_, err := e.Do(victimCtx, Request{Seed: 3, Method: MethodTEA})
		victimErr <- err
	}()
	go func() {
		resp, err := e.Do(context.Background(), Request{Seed: 7, Method: MethodTEA})
		if err != nil {
			t.Error(err)
			survivor <- nil
			return
		}
		survivor <- resp
	}()
	// Both members passed runBatch's liveness filter and the worker is parked
	// at the gate; now the victim's caller walks away, canceling its source.
	<-entered
	cancelVictim()
	if err := <-victimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim error = %v, want canceled", err)
	}
	release()

	resp := <-survivor
	if resp == nil {
		t.Fatal("survivor failed")
	}
	direct, err := est.TEA(7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, direct.Scores, resp.Result.Scores)
	snap := e.Snapshot()
	if snap.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1 (the aborted lane)", snap.Canceled)
	}
	waitForZeroWorkspaces(t, e)
}

// TestServeBatchSingletonExpiresUnbatched covers the window-expiry path: a
// lone query whose group never fills must flush when the window elapses and
// execute as a plain unbatched query (no batch metrics, trace Batch = 0).
func TestServeBatchSingletonExpiresUnbatched(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, BatchWindow: 20 * time.Millisecond, BatchMaxK: 8, CacheBytes: -1})
	resp, err := e.Do(context.Background(), Request{Seed: 3, Method: MethodTEA, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace.Batch != 0 {
		t.Fatalf("singleton trace batch = %d, want 0 (unbatched)", resp.Trace.Batch)
	}
	snap := e.Snapshot()
	if snap.BatchExecutions != 0 || snap.BatchedQueries != 0 {
		t.Fatalf("singleton flush recorded batch metrics: executions=%d queries=%d", snap.BatchExecutions, snap.BatchedQueries)
	}
	if snap.Executions != 1 {
		t.Fatalf("executions = %d, want 1", snap.Executions)
	}
	if snap.BatchPending != 0 {
		t.Fatalf("batch pending = %d after completion", snap.BatchPending)
	}
}

// TestServeBatchCloseFailsWindowedQueries closes the engine while a query is
// still waiting in the batching window; the caller must get ErrClosed rather
// than hang for the window.
func TestServeBatchCloseFailsWindowedQueries(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, BatchWindow: time.Minute, BatchMaxK: 8})
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 3, Method: MethodTEA})
		errCh <- err
	}()
	waitFor(t, "the query to enter the batching window", func() bool { return e.Snapshot().BatchPending == 1 })
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("windowed query error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("windowed query still blocked after Close")
	}
}

// TestServeBatchSteadyStateAllocations re-runs the serving alloc guards with
// the batching window enabled: the cache-hit path returns before the window
// and must stay zero-copy, and a full execution (here: a singleton window
// expiry) may add only the group-key string over the unbatched ceiling.
func TestServeBatchSteadyStateAllocations(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, BatchWindow: 200 * time.Microsecond, BatchMaxK: 8})
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
	hitLimit := 3.0
	if raceEnabled {
		hitLimit = 12
	}
	if hitAllocs > hitLimit {
		t.Fatalf("cache-hit allocations with batch window = %v, want ≤ %v", hitAllocs, hitLimit)
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
	missLimit := 36.0
	if raceEnabled {
		missLimit = 200
	}
	if missAllocs > missLimit {
		t.Fatalf("execution allocations with batch window = %v, want ≤ %v", missAllocs, missLimit)
	}
	t.Logf("batch-window cache-hit allocs/op = %v, execution allocs/op = %v", hitAllocs, missAllocs)
}

// TestServeBatchInvariantAudits checks batched executions feed the always-on
// invariant machinery per source: every member's audit runs its checks, the
// counters fold into the engine totals, and no violations fire.
func TestServeBatchInvariantAudits(t *testing.T) {
	const k = 4
	e := newTestEngine(t, Config{Workers: 2, BatchWindow: 5 * time.Second, BatchMaxK: k,
		CacheBytes: -1, StrictInvariants: true})
	var mu sync.Mutex
	var audits []int64
	e.auditHook = func(a *core.InvariantAudit) {
		mu.Lock()
		audits = append(audits, a.Checks)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, seed := range [k]graph.NodeID{3, 5, 9, 11} {
		wg.Add(1)
		go func(seed graph.NodeID) {
			defer wg.Done()
			if _, err := e.Do(context.Background(), Request{Seed: seed, Method: MethodTEA}); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(seed)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(audits) != k {
		t.Fatalf("audit hook ran %d times, want %d (once per batched member)", len(audits), k)
	}
	for i, checks := range audits {
		if checks < 3 {
			t.Fatalf("member %d ran %d invariant checks, want ≥ 3 (mass conservation + result audits)", i, checks)
		}
	}
	snap := e.Snapshot()
	if snap.InvariantChecks < int64(3*k) {
		t.Fatalf("engine folded %d invariant checks, want ≥ %d", snap.InvariantChecks, 3*k)
	}
	if len(snap.InvariantViolations) != 0 {
		t.Fatalf("batched execution raised invariant violations: %v", snap.InvariantViolations)
	}
}
