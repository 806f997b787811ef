package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hkpr/internal/core"
	"hkpr/internal/gen"
	"hkpr/internal/graph"
)

// testGraph builds a modest power-law-cluster graph shared by the tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerlawCluster(2000, 4, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEstimator(t testing.TB, g *graph.Graph) *core.Estimator {
	t.Helper()
	est, err := core.NewEstimator(g, core.Options{
		T: 5, EpsRel: 0.5, Delta: 1 / float64(g.N()), FailureProb: 1e-4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	g := testGraph(t)
	e, err := New(testEstimator(t, g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// gateExecutions returns the channel gated executions wait on and an
// idempotent release that opens it.  The release is also registered with
// t.Cleanup; call it after newTestEngine.  Cleanups run last-in first-out, so
// the gate opens before the engine's Close waits for the gated worker, and a
// test that fails before its own release fails fast instead of hanging the
// package.
func gateExecutions(t testing.TB) (gate <-chan struct{}, release func()) {
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return ch, release
}

// waitFor polls cond every millisecond and fails the test if it still does
// not hold after 5 seconds.  A passing wait returns as soon as cond holds.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEngineMatchesDirectEstimator(t *testing.T) {
	g := testGraph(t)
	est := testEstimator(t, g)
	e, err := New(est, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// TEA rather than TEA+: the latter's budgeted push stops after a
	// map-iteration-order-dependent prefix, so even two direct runs diverge
	// beyond walk-increment noise.
	resp, err := e.Do(context.Background(), Request{Seed: 17, Method: MethodTEA, Sweep: true})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := est.TEA(17, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertScoresClose(t, direct.Scores, resp.Result.Scores)
	if resp.Sweep == nil || len(resp.Sweep.Cluster) == 0 {
		t.Fatal("expected a sweep result")
	}
	if resp.Cached || resp.Coalesced {
		t.Fatalf("first execution flagged cached=%v coalesced=%v", resp.Cached, resp.Coalesced)
	}
}

func TestCacheHit(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	req := Request{Seed: 42, Sweep: true}
	first, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical query should be served from cache")
	}
	if second.Result != first.Result {
		t.Fatal("cached response should share the Result")
	}
	snap := e.Snapshot()
	if snap.CacheHits != 1 || snap.Executions != 1 {
		t.Fatalf("hits=%d executions=%d, want 1/1", snap.CacheHits, snap.Executions)
	}

	// Different parameters must not collide.
	other, err := e.Do(context.Background(), Request{Seed: 42, Sweep: true, Opts: core.Options{EpsRel: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("different εr should miss the cache")
	}
}

// TestCoalescing holds one execution in flight and checks that concurrent
// identical queries coalesce into a single core-estimator execution.  Run
// with -race this doubles as the concurrency-safety test demanded by the
// issue's acceptance criteria.
func TestCoalescing(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, QueueDepth: 8})
	gate, release := gateExecutions(t)
	entered := make(chan struct{}, 16)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-gate
	}

	const callers = 6
	req := Request{Seed: 99, Sweep: true}
	var wg sync.WaitGroup
	resps := make([]*Response, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(context.Background(), req)
		}(i)
	}

	// Wait for the first caller to reach the estimator, then for the other
	// callers to attach to its flight entry.
	<-entered
	waitFor(t, "every caller to coalesce", func() bool { return e.metrics.Coalesced.Load() >= callers-1 })
	release()
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	if got := e.metrics.Executions.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent identical queries, want 1", got, callers)
	}
	coalesced := 0
	for i := 0; i < callers; i++ {
		if resps[i].Coalesced {
			coalesced++
		}
		if resps[i].Result != resps[0].Result {
			t.Fatal("coalesced callers should share one Result")
		}
	}
	if coalesced != callers-1 {
		t.Fatalf("%d responses flagged coalesced, want %d", coalesced, callers-1)
	}
}

func TestAdmissionShedding(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1, CacheBytes: -1})
	gate, release := gateExecutions(t)
	entered := make(chan struct{}, 4)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-gate
	}

	// First query occupies the worker…
	done1 := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 1})
		done1 <- err
	}()
	<-entered

	// …second fills the one queue slot…
	done2 := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 2})
		done2 <- err
	}()
	waitFor(t, "a queued task", func() bool { return len(e.queue) > 0 })

	// …third must be shed immediately.
	if _, err := e.Do(context.Background(), Request{Seed: 3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if got := e.metrics.Shed.Load(); got != 1 {
		t.Fatalf("shed=%d, want 1", got)
	}

	release()
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}

// TestCancelLongQuery verifies that a deadline aborts a deliberately
// expensive TEA+ query inside the core push/walk loops, not just at the
// boundaries.
func TestCancelLongQuery(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	// δ far below 1/n makes ω enormous, and a tiny hop-cap constant C stops
	// the push after one hop so nearly all the residue mass goes to random
	// walks: ~10^11 of them.  Without cancellation this query runs for hours.
	start := time.Now()
	_, err := e.Do(ctx, Request{Seed: 5, Opts: core.Options{Delta: 1e-9, C: 1e-3}, NoCache: true})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, cancellation checkpoints are not working", elapsed)
	}
	// The worker records the cancellation just after the caller is released;
	// poll briefly rather than racing it.
	waitFor(t, "the cancellation to be recorded", func() bool { return e.metrics.Canceled.Load() > 0 })

	// The engine must stay healthy after a canceled query.
	if _, err := e.Do(context.Background(), Request{Seed: 5}); err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2, CacheBytes: -1})
	gate, release := gateExecutions(t)
	entered := make(chan struct{}, 4)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-gate
	}

	go e.Do(context.Background(), Request{Seed: 1}) //nolint:errcheck
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, Request{Seed: 2})
		done <- err
	}()
	waitFor(t, "a queued task", func() bool { return len(e.queue) > 0 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	release()
	// The worker must skip the abandoned task without executing it.
	waitFor(t, "the queued task to retire", func() bool { return e.metrics.Completed.Load() >= 2 })
	if got := e.metrics.Executions.Load(); got != 1 {
		t.Fatalf("abandoned queued task was executed (executions=%d)", got)
	}
}

// TestAbandonedTaskNotJoined reproduces the coalescing race: a queued
// cacheable task whose only caller abandons it is canceled, and a later
// identical query from a live caller must start a fresh execution rather
// than inherit the cancellation.
func TestAbandonedTaskNotJoined(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4})
	gate, release := gateExecutions(t)
	entered := make(chan struct{}, 4)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-gate
	}

	// Occupy the only worker with an unrelated query.
	go e.Do(context.Background(), Request{Seed: 1, NoCache: true}) //nolint:errcheck
	<-entered

	// A cacheable query queues up, then its caller abandons it.
	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() {
		_, err := e.Do(ctxA, Request{Seed: 50})
		doneA <- err
	}()
	waitFor(t, "a queued task", func() bool { return len(e.queue) > 0 })
	cancelA()
	if err := <-doneA; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller: %v", err)
	}

	// An identical query from a live caller must not join the canceled task.
	doneB := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 50})
		doneB <- err
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	if err := <-doneB; err != nil {
		t.Fatalf("live caller inherited abandoned cancellation: %v", err)
	}
}

func TestCacheEviction(t *testing.T) {
	// A budget this small holds only a handful of responses (a TEA+ response
	// on this graph pins ~100 KiB), so a sweep of distinct seeds must evict
	// early entries.
	e := newTestEngine(t, Config{Workers: 2, CacheBytes: 4 << 20})
	const queries = 200
	for s := 0; s < queries; s++ {
		if _, err := e.Do(context.Background(), Request{Seed: graph.NodeID(s), Sweep: true}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.CacheBytes > snap.CacheCapacity {
		t.Fatalf("cache bytes %d exceed budget %d", snap.CacheBytes, snap.CacheCapacity)
	}
	if snap.CacheEntries == 0 {
		t.Fatal("cache should retain recent entries")
	}
	if snap.CacheEntries >= queries {
		t.Fatalf("no eviction happened: %d entries for %d distinct queries", snap.CacheEntries, queries)
	}
	// Recent seeds should still be cached; seed 0 should have been evicted.
	recent, err := e.Do(context.Background(), Request{Seed: queries - 1, Sweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !recent.Cached {
		t.Fatal("most recent entry should still be cached")
	}
}

func TestCacheConcurrencyRace(t *testing.T) {
	// Hammer a tiny cache from many goroutines; -race verifies shard safety.
	e := newTestEngine(t, Config{Workers: 4, QueueDepth: 64, CacheBytes: 32 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				seed := graph.NodeID((w*13 + i) % 40)
				if _, err := e.Do(context.Background(), Request{Seed: seed}); err != nil &&
					!errors.Is(err, ErrOverloaded) {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMethodsAndValidation(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	for _, m := range []string{MethodTEAPlus, MethodTEA, MethodMonteCarlo} {
		resp, err := e.Do(context.Background(), Request{Seed: 3, Method: m, Opts: core.Options{Delta: 0.01}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if resp.Method != m {
			t.Fatalf("method echoed as %q", resp.Method)
		}
	}
	if _, err := e.Do(context.Background(), Request{Seed: 3, Method: "bogus"}); err == nil {
		t.Fatal("bogus method accepted")
	}
	if _, err := e.Do(context.Background(), Request{Seed: -1}); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	g := testGraph(t)
	e, err := New(testEstimator(t, g), Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate, release := gateExecutions(t)
	entered := make(chan struct{}, 2)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		select {
		case <-gate:
		case <-time.After(5 * time.Second):
		}
	}
	queued := make(chan error, 1)
	go e.Do(context.Background(), Request{Seed: 1, NoCache: true}) //nolint:errcheck
	<-entered
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 2, NoCache: true})
		queued <- err
	}()
	waitFor(t, "a queued task", func() bool { return len(e.queue) > 0 })
	closeDone := make(chan struct{})
	go func() { e.Close(); close(closeDone) }()
	// Release the gated execution only after Close has canceled the engine
	// context, so the queued task cannot sneak through a still-live worker.
	<-e.baseCtx.Done()
	release()
	<-closeDone
	if err := <-queued; !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query after close: %v", err)
	}
	if _, err := e.Do(context.Background(), Request{Seed: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed after Close, got %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestPrometheusOutput(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	if _, err := e.Do(context.Background(), Request{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	e.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"hkpr_serve_requests_total 1",
		"hkpr_serve_executions_total 1",
		"hkpr_serve_latency_seconds_count 1",
		`hkpr_serve_latency_seconds_bucket{le="+Inf"} 1`,
		"# TYPE hkpr_serve_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotCountersAdd(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := e.Do(context.Background(), Request{Seed: graph.NodeID(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.Requests != n {
		t.Fatalf("requests=%d, want %d", snap.Requests, n)
	}
	if snap.Executions != 3 || snap.CacheHits != n-3 {
		t.Fatalf("executions=%d hits=%d, want 3/%d", snap.Executions, snap.CacheHits, n-3)
	}
	if snap.LatencyCount != snap.Executions {
		t.Fatalf("latency count %d != executions %d", snap.LatencyCount, snap.Executions)
	}
	if snap.LatencyP50MS <= 0 || snap.LatencyMeanMS <= 0 {
		t.Fatalf("latency stats not populated: %+v", snap)
	}
}

// TestDeterministicAcrossEngines checks the scheduler adds no
// nondeterminism of its own: Monte-Carlo (bitwise deterministic for a fixed
// RNG seed) yields identical results through two separate engines.
func TestDeterministicAcrossEngines(t *testing.T) {
	g := testGraph(t)
	run := func() core.ScoreVector {
		e, err := New(testEstimator(t, g), Config{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		resp, err := e.Do(context.Background(), Request{
			Seed: 123, Method: MethodMonteCarlo, Opts: core.Options{Delta: 0.01},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Scores
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("support sizes differ: %d vs %d", len(a), len(b))
	}
	for i, e := range a {
		if b[i] != e {
			t.Fatalf("nondeterministic score at %d: %v vs %v", e.Node, e, b[i])
		}
	}
}

// assertScoresClose compares two runs of the same query.  Map iteration
// order perturbs float accumulation at the last bit, which can shift the
// ceil-boundary walk count by one and hence individual walk endpoints, so
// two runs agree only up to a few walk increments per node — far below any
// meaningful score, far above genuine divergence.
func assertScoresClose(t *testing.T, av, bv core.ScoreVector) {
	t.Helper()
	a, b := av.Map(), bv.Map()
	totalA, totalB := 0.0, 0.0
	for _, s := range a {
		totalA += s
	}
	for _, s := range b {
		totalB += s
	}
	if diff := math.Abs(totalA - totalB); diff > 1e-9 {
		t.Fatalf("total masses differ: %v vs %v", totalA, totalB)
	}
	union := make(map[graph.NodeID]struct{}, len(a))
	for v := range a {
		union[v] = struct{}{}
	}
	for v := range b {
		union[v] = struct{}{}
	}
	for v := range union {
		if diff := math.Abs(a[v] - b[v]); diff > 1e-4+1e-6*math.Abs(a[v]) {
			t.Fatalf("score mismatch at %d: %v vs %v", v, a[v], b[v])
		}
	}
}

func ExampleEngine() {
	g, _ := gen.PowerlawCluster(500, 3, 0.3, 1)
	est, _ := core.NewEstimator(g, core.Options{Delta: 1 / float64(g.N()), Seed: 1})
	e, _ := New(est, Config{Workers: 2})
	defer e.Close()
	resp, _ := e.Do(context.Background(), Request{Seed: 7, Sweep: true})
	fmt.Println(len(resp.Sweep.Cluster) > 0)
	// Output: true
}
