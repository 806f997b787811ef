package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hkpr/internal/core"
	"hkpr/internal/graph"
	"hkpr/internal/promtext"
)

// pinnedElevatedConfig returns a Pressure config whose 1ns latency budget
// pins the controller at (at least) Elevated as soon as a single execution
// latency has been observed — the deterministic way for tests to engage a
// tier policy without manufacturing real queue pressure.
func pinnedElevatedConfig(pol TierPolicy) PressureConfig {
	return PressureConfig{LatencyBudget: time.Nanosecond, Elevated: pol}
}

func TestPressureTierThresholds(t *testing.T) {
	p := newPressureController(PressureConfig{}.withDefaults())
	if got := p.current(); got != PressureNominal {
		t.Fatalf("initial tier = %v", got)
	}
	// Drive the occupancy EWMA to saturation: tier walks up the ladder.
	for i := 0; i < 100; i++ {
		p.observeOccupancy(1.0, false, false)
	}
	if got := p.current(); got != PressureCritical {
		t.Fatalf("tier after saturated occupancy = %v, want critical", got)
	}
	// And back down as the queue empties.
	for i := 0; i < 200; i++ {
		p.observeOccupancy(0, false, false)
	}
	if got := p.current(); got != PressureNominal {
		t.Fatalf("tier after drain = %v, want nominal", got)
	}
	if p.transitions.Load() < 2 {
		t.Fatalf("transitions = %d, want at least up and down", p.transitions.Load())
	}
	// Shed rate alone forces tiers even with an empty queue.
	for i := 0; i < 100; i++ {
		p.observeShed(true)
	}
	if got := p.current(); got != PressureCritical {
		t.Fatalf("tier under pure shedding = %v, want critical", got)
	}
	// Secondary signals hold the floor at Elevated.
	p2 := newPressureController(PressureConfig{}.withDefaults())
	if got := p2.observeOccupancy(0, true, false); got != PressureElevated {
		t.Fatalf("workspace saturation tier = %v, want elevated", got)
	}
}

// TestClampedExecutionBitIdentity is the acceptance check for auto-clamped
// budgets: under a WalkScale policy, a fixed-seed query is bit-identical at
// Parallelism 1 and 8, labeled DegradedClamped, echoes its effective budgets,
// and never populates the result cache.
func TestClampedExecutionBitIdentity(t *testing.T) {
	e := newTestEngine(t, Config{
		Workers:   2,
		CPUTokens: 8,
		Pressure:  pinnedElevatedConfig(TierPolicy{WalkScale: 0.5, ServeStale: true}),
	})
	ctx := context.Background()

	// Before any latency sample the engine is Nominal: the warmup runs
	// unclamped and records the latency that pins Elevated afterwards.
	warm, err := e.Do(ctx, Request{Seed: 11, Method: MethodTEA, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Degraded != "" || warm.Result.Stats.WalkBudgetClamped {
		t.Fatalf("warmup clamped at nominal: degraded=%q", warm.Degraded)
	}
	if e.PressureLevel() == PressureNominal {
		// One more Do folds the signal in.
		if _, err := e.Do(ctx, Request{Seed: 11, Method: MethodTEA, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	if lvl := e.PressureLevel(); lvl < PressureElevated {
		t.Fatalf("latency budget did not pin the tier: %v", lvl)
	}

	p1, err := e.Do(ctx, Request{Seed: 11, Method: MethodTEA, NoCache: true,
		Opts: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p8, err := e.Do(ctx, Request{Seed: 11, Method: MethodTEA, NoCache: true,
		Opts: core.Options{Parallelism: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Response{"P=1": p1, "P=8": p8} {
		if r.Degraded != DegradedClamped {
			t.Fatalf("%s: degraded = %q, want clamped", name, r.Degraded)
		}
		st := &r.Result.Stats
		if !st.WalkBudgetClamped || st.WalkBudgetPlanned <= st.RandomWalks {
			t.Fatalf("%s: clamp not reflected in stats: clamped=%v planned=%d walked=%d",
				name, st.WalkBudgetClamped, st.WalkBudgetPlanned, st.RandomWalks)
		}
		eff := r.Effective
		if eff.WalkScale != 0.5 || eff.WalkBudget != st.RandomWalks || eff.WalkBudgetPlanned != st.WalkBudgetPlanned {
			t.Fatalf("%s: effective options not echoed: %+v", name, eff)
		}
	}
	if p1.Parallelism != 1 || p8.Parallelism != 8 {
		t.Fatalf("parallelism pins not honored: %d / %d", p1.Parallelism, p8.Parallelism)
	}
	if len(p1.Result.Scores) != len(p8.Result.Scores) {
		t.Fatalf("clamped results differ in support: %d vs %d", len(p1.Result.Scores), len(p8.Result.Scores))
	}
	for i := range p1.Result.Scores {
		if p1.Result.Scores[i] != p8.Result.Scores[i] {
			t.Fatalf("clamped execution not bit-identical across parallelism at %d: %+v vs %+v",
				i, p1.Result.Scores[i], p8.Result.Scores[i])
		}
	}
	// The clamp actually reduced work relative to the unclamped warmup.
	if w, c := warm.Result.Stats.RandomWalks, p1.Result.Stats.RandomWalks; c >= w {
		t.Fatalf("clamped walks %d not below unclamped %d", c, w)
	}
	if got := e.metrics.DegradedClampedServed.Load(); got < 2 {
		t.Fatalf("DegradedClampedServed = %d, want >= 2", got)
	}

	// A cacheable clamped execution must not poison the cache.
	entriesBefore, _ := e.cache.stats()
	clamped, err := e.Do(ctx, Request{Seed: 223, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Degraded != DegradedClamped {
		t.Fatalf("cacheable query under clamp not labeled: %q", clamped.Degraded)
	}
	if entriesAfter, _ := e.cache.stats(); entriesAfter != entriesBefore {
		t.Fatalf("clamped response entered the cache: %d -> %d entries", entriesBefore, entriesAfter)
	}
}

// TestSweepClampLabeled checks the MaxSweepK policy: the sweep is bounded,
// labeled, and the effective k echoed.
func TestSweepClampLabeled(t *testing.T) {
	e := newTestEngine(t, Config{
		Workers:  1,
		Pressure: pinnedElevatedConfig(TierPolicy{MaxSweepK: 3, ServeStale: true}),
	})
	ctx := context.Background()
	if _, err := e.Do(ctx, Request{Seed: 5, Method: MethodTEA, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(ctx, Request{Seed: 6, Method: MethodTEA, Sweep: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != DegradedClamped || resp.Effective.SweepK != 3 {
		t.Fatalf("bounded sweep not labeled: degraded=%q effective=%+v", resp.Degraded, resp.Effective)
	}
	if resp.Sweep == nil || len(resp.Sweep.Order) > 3 {
		t.Fatalf("sweep not bounded to k=3: %+v", resp.Sweep)
	}
	// A sweep-free query under the same tier stays unlabeled (nothing about
	// its accuracy contract changed).
	plain, err := e.Do(ctx, Request{Seed: 7, Method: MethodTEA, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Degraded != "" {
		t.Fatalf("sweep-free query labeled %q under a sweep-only policy", plain.Degraded)
	}
}

// TestStaleWhileRevalidate covers the stale-serving tentpole end to end: a
// radius-invalidated entry migrates to the arena, is served zero-copy under
// pressure labeled DegradedStale at its pre-update epoch, a single background
// revalidation recomputes it, and the fresh result then retires the parked
// entry.
func TestStaleWhileRevalidate(t *testing.T) {
	d := twoComponentDynamic(t)
	e := dynamicTestEngine(t, d, Config{
		Workers:  2,
		Pressure: pinnedElevatedConfig(TierPolicy{ServeStale: true}),
	})
	ctx := context.Background()

	warm, err := e.Do(ctx, Request{Seed: 3, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Epoch != 0 {
		t.Fatalf("warmup epoch = %d", warm.Epoch)
	}
	// Pin the tier (the warmup recorded a latency sample; one more Do folds
	// the signal).
	if _, err := e.Do(ctx, Request{Seed: 40, Method: MethodTEA}); err != nil {
		t.Fatal(err)
	}
	if e.PressureLevel() < PressureElevated {
		t.Fatalf("tier not pinned: %v", e.PressureLevel())
	}

	// The update invalidates seed 3's entry into the arena.
	if _, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{2, 10}}}); err != nil {
		t.Fatal(err)
	}
	if entries, bytes := e.stale.stats(); entries != 1 || bytes <= 0 {
		t.Fatalf("arena after invalidation: entries=%d bytes=%d", entries, bytes)
	}

	stale, err := e.Do(ctx, Request{Seed: 3, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Degraded != DegradedStale || !stale.Cached {
		t.Fatalf("stale serve: degraded=%q cached=%v", stale.Degraded, stale.Cached)
	}
	if stale.Epoch != 0 {
		t.Fatalf("stale response must report its pre-update epoch: %d", stale.Epoch)
	}
	if stale.Result != warm.Result {
		t.Fatal("stale serve was not zero-copy")
	}

	// The background revalidation replaces the entry with a fresh epoch-1
	// result; once it lands, the same query is a plain (unlabeled) cache hit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := e.Do(ctx, Request{Seed: 3, Method: MethodTEA})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degraded == "" {
			if !resp.Cached || resp.Epoch != 1 {
				t.Fatalf("revalidated response: cached=%v epoch=%d, want fresh epoch-1 hit", resp.Cached, resp.Epoch)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("revalidation never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if entries, _ := e.stale.stats(); entries != 0 {
		t.Fatalf("arena entry not retired after revalidation: %d", entries)
	}
	if got := e.metrics.Revalidations.Load(); got < 1 {
		t.Fatalf("Revalidations = %d", got)
	}
	if got := e.metrics.DegradedStaleServed.Load(); got < 1 {
		t.Fatalf("DegradedStaleServed = %d", got)
	}
	snap := e.Snapshot()
	if snap.DegradedStaleServed < 1 || snap.Revalidations < 1 {
		t.Fatalf("snapshot missing degraded counters: %+v", snap)
	}
}

// TestStaleArenaInsideCacheBudget is the accounting bugfix check: the arena's
// budget is carved out of Config.CacheBytes (capacities sum exactly to the
// configured budget) and a parked entry's bytes are the exact cost the cache
// charged for it.
func TestStaleArenaInsideCacheBudget(t *testing.T) {
	const budget = 1 << 20
	d := twoComponentDynamic(t)
	e := dynamicTestEngine(t, d, Config{Workers: 1, CacheBytes: budget})
	ctx := context.Background()

	if e.cache.capacity+e.stale.budget != budget {
		t.Fatalf("cache %d + stale %d capacities != configured %d", e.cache.capacity, e.stale.budget, budget)
	}
	wantStale := int64(float64(budget) * defaultStaleFrac)
	if e.stale.budget != wantStale {
		t.Fatalf("stale budget = %d, want %d", e.stale.budget, wantStale)
	}

	if _, err := e.Do(ctx, Request{Seed: 3, Method: MethodTEA}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(ctx, Request{Seed: 40, Method: MethodTEA}); err != nil {
		t.Fatal(err)
	}
	_, cacheBytesBefore := e.cache.stats()

	// Invalidate seed 3: its exact byte cost moves from the cache to the
	// arena — conservation, not approximation.
	if _, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{2, 10}}}); err != nil {
		t.Fatal(err)
	}
	_, cacheBytesAfter := e.cache.stats()
	staleEntries, staleBytes := e.stale.stats()
	if staleEntries != 1 {
		t.Fatalf("arena entries = %d", staleEntries)
	}
	if cacheBytesBefore-cacheBytesAfter != staleBytes {
		t.Fatalf("bytes not conserved: cache dropped %d, arena holds %d",
			cacheBytesBefore-cacheBytesAfter, staleBytes)
	}

	snap := e.Snapshot()
	if snap.StaleEntries != 1 || snap.StaleBytes != staleBytes || snap.StaleCapacity != wantStale {
		t.Fatalf("snapshot stale accounting: %+v", snap)
	}
	if snap.CacheCapacity+snap.StaleCapacity != budget {
		t.Fatalf("snapshot capacities %d+%d != %d", snap.CacheCapacity, snap.StaleCapacity, budget)
	}
	if snap.CacheBytes+snap.StaleBytes > budget {
		t.Fatalf("cache %d + stale %d exceed budget %d", snap.CacheBytes, snap.StaleBytes, budget)
	}

	var buf bytes.Buffer
	e.WritePrometheus(&buf)
	out := buf.String()
	if err := promtext.Validate(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, series := range []string{"hkpr_serve_stale_bytes", "hkpr_serve_stale_capacity_bytes", "hkpr_serve_stale_entries", "hkpr_serve_pressure_level"} {
		if !strings.Contains(out, series) {
			t.Fatalf("missing series %q", series)
		}
	}
}

// TestDrainFinishesAdmittedQueries is the graceful-drain satellite: queries
// admitted before Drain all complete normally (none abandoned), new
// admissions fail with ErrClosed, and the workspace pool is fully returned.
func TestDrainFinishesAdmittedQueries(t *testing.T) {
	var gated atomic.Int64
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	gate, release := gateExecutions(t)
	e.execGate = func(*Request) {
		gated.Add(1)
		<-gate
	}
	ctx := context.Background()

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(ctx, Request{Seed: int32(100 + i), Method: MethodTEA})
		}(i)
	}
	// Wait until all three are admitted (pending counts them) and the first
	// is parked in the gate.
	waitFor(t, "every query admitted and the first gated", func() bool { return e.pending.Load() >= n && gated.Load() > 0 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- e.Drain(10 * time.Second) }()
	// Admission is off while the backlog drains.
	waitFor(t, "admission to close", func() bool { return e.closedFast.Load() })
	if _, err := e.Do(ctx, Request{Seed: 1, Method: MethodTEA}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do during drain = %v, want ErrClosed", err)
	}

	release()
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want clean drain", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted query %d abandoned during drain: %v", i, errs[i])
		}
		if resps[i] == nil || resps[i].Result == nil {
			t.Fatalf("admitted query %d returned no result", i)
		}
	}
	if ws := e.wsOut.Load(); ws != 0 {
		t.Fatalf("workspaces_in_use = %d after drain", ws)
	}
	if err := e.Drain(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after drain = %v, want ErrClosed", err)
	}
}

// TestDrainTimeoutAborts: a backlog that cannot drain within the timeout is
// cut off — Drain force-closes and reports the aborted count.  The gate is
// released only after the deadline fires (Close waits for the workers, so a
// forever-stuck gate would deadlock the forced close itself).
func TestDrainTimeoutAborts(t *testing.T) {
	var gated atomic.Int64
	e := newTestEngine(t, Config{Workers: 1})
	gate, release := gateExecutions(t)
	e.execGate = func(*Request) {
		gated.Add(1)
		<-gate
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 9, Method: MethodTEA})
		done <- err
	}()
	waitFor(t, "the gated execution", func() bool { return gated.Load() > 0 })
	drainErr := make(chan error, 1)
	go func() { drainErr <- e.Drain(20 * time.Millisecond) }()
	// Let the deadline pass while the execution is still parked, then unstick
	// it so the forced Close can reap the worker.
	time.Sleep(60 * time.Millisecond)
	release()
	err := <-drainErr
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("Drain with a stuck execution = %v, want timeout error", err)
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("timeout error does not report the cut: %v", err)
	}
	<-done // the cut query unblocks either way once the engine is closed
}

// TestOverloadedErrorRetryAfter checks shed queries carry a bounded
// Retry-After hint while the controller is active, and stay a plain
// ErrOverloaded with it disabled.
func TestOverloadedErrorRetryAfter(t *testing.T) {
	run := func(t *testing.T, cfg Config, wantHint bool) {
		e := newTestEngine(t, cfg)
		gate, release := gateExecutions(t)
		e.execGate = func(*Request) { <-gate }
		ctx := context.Background()

		var shedErr error
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := 0; i < 50; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := e.Do(ctx, Request{Seed: int32(i), Method: MethodTEA, NoCache: true})
				if errors.Is(err, ErrOverloaded) {
					mu.Lock()
					if shedErr == nil {
						shedErr = err
					}
					mu.Unlock()
				}
			}(i)
			mu.Lock()
			got := shedErr
			mu.Unlock()
			if got != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		err := shedErr
		mu.Unlock()
		if err == nil {
			t.Fatal("queue never overflowed")
		}
		var oe *OverloadedError
		if wantHint {
			if !errors.As(err, &oe) {
				t.Fatalf("shed error %T lacks Retry-After", err)
			}
			cfg := e.pressure.cfg
			if oe.RetryAfter < cfg.RetryAfterFloor || oe.RetryAfter > cfg.RetryAfterCeil {
				t.Fatalf("RetryAfter %s outside [%s, %s]", oe.RetryAfter, cfg.RetryAfterFloor, cfg.RetryAfterCeil)
			}
		} else if errors.As(err, &oe) {
			t.Fatalf("disabled controller still produced %T", err)
		}
		release()
		wg.Wait()
	}
	t.Run("controller", func(t *testing.T) {
		run(t, Config{Workers: 1, QueueDepth: 1}, true)
	})
	t.Run("disabled", func(t *testing.T) {
		run(t, Config{Workers: 1, QueueDepth: 1, Pressure: PressureConfig{Disabled: true}}, false)
	})
}

// TestErrorTaxonomy drives one failure of each reason and checks the labeled
// counters (and their Prometheus exposition) account for every one.
func TestErrorTaxonomy(t *testing.T) {
	if got := classifyError(&OverloadedError{RetryAfter: time.Second}); got != reasonOverloaded {
		t.Fatalf("OverloadedError classified %v", got)
	}
	if got := classifyError(context.DeadlineExceeded); got != reasonTimeout {
		t.Fatalf("deadline classified %v", got)
	}
	if got := classifyError(errors.New("boom")); got != reasonOther {
		t.Fatalf("unknown error classified %v", got)
	}

	// invariant: strict mode + injected violation.
	strict := newTestEngine(t, Config{Workers: 1, StrictInvariants: true})
	strict.auditHook = func(a *core.InvariantAudit) {
		a.Violations[core.InvariantTotalMass]++
		a.FirstViolation = "injected"
	}
	if _, err := strict.Do(context.Background(), Request{Seed: 1, NoCache: true}); !errors.Is(err, core.ErrInvariantViolation) {
		t.Fatalf("strict query err = %v", err)
	}
	if got := strict.metrics.ErrorsByReason[reasonInvariant].Load(); got != 1 {
		t.Fatalf("invariant reason = %d", got)
	}

	// canceled + timeout: queries queued behind a gated execution whose
	// contexts die before a worker reaches them.
	var gated atomic.Int64
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	gate, release := gateExecutions(t)
	e.execGate = func(*Request) {
		gated.Add(1)
		<-gate
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Do(ctx, Request{Seed: 50, Method: MethodTEA, NoCache: true})
	}()
	waitFor(t, "the gated execution", func() bool { return gated.Load() > 0 })
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Do(cctx, Request{Seed: 51, Method: MethodTEA}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query err = %v", err)
	}
	tctx, tcancel := context.WithTimeout(ctx, time.Millisecond)
	defer tcancel()
	if _, err := e.Do(tctx, Request{Seed: 52, Method: MethodTEA}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined query err = %v", err)
	}
	release()
	wg.Wait()
	// The queued victims are counted when a worker reaps them.
	waitFor(t, "the canceled and timeout taxonomy counters", func() bool {
		return e.metrics.ErrorsByReason[reasonCanceled].Load() >= 1 &&
			e.metrics.ErrorsByReason[reasonTimeout].Load() >= 1
	})

	// closed.
	e.Close()
	if _, err := e.Do(ctx, Request{Seed: 53, Method: MethodTEA}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed query err = %v", err)
	}
	if got := e.metrics.ErrorsByReason[reasonClosed].Load(); got < 1 {
		t.Fatalf("closed reason = %d", got)
	}

	snap := e.Snapshot()
	for _, reason := range []string{"canceled", "timeout", "closed"} {
		if snap.ErrorsByReason[reason] < 1 {
			t.Fatalf("snapshot missing reason %q: %v", reason, snap.ErrorsByReason)
		}
	}
	var buf bytes.Buffer
	e.WritePrometheus(&buf)
	out := buf.String()
	if err := promtext.Validate(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for r := errorReason(0); r < numErrorReasons; r++ {
		if !strings.Contains(out, `hkpr_serve_errors_total{reason="`+r.String()+`"}`) {
			t.Fatalf("missing errors_total series for %q", r)
		}
	}
}

// TestUpdateRaceNeverServesUnlabeledStale is the satellite race test:
// invalidation racing a saturated admission queue must never serve a stale
// result unlabeled, and the cache must never repopulate from a pre-publish
// epoch.  Writers keep republishing the hot seed's neighborhood while readers
// hammer it through a tiny queue with a stalling gate.
func TestUpdateRaceNeverServesUnlabeledStale(t *testing.T) {
	d := twoComponentDynamic(t)
	var execs atomic.Int64
	e := dynamicTestEngine(t, d, Config{
		Workers:    2,
		QueueDepth: 2,
		Pressure:   pinnedElevatedConfig(TierPolicy{ServeStale: true}),
		ExecGate: func(*Request) {
			if execs.Add(1)%4 == 0 {
				time.Sleep(500 * time.Microsecond)
			}
		},
	})
	ctx := context.Background()
	const hotSeed = graph.NodeID(3)
	if _, err := e.Do(ctx, Request{Seed: hotSeed, Method: MethodTEA}); err != nil {
		t.Fatal(err)
	}

	// lastPublished is the epoch whose {publish + invalidate} pair has fully
	// completed; an unlabeled, uncoalesced response for the hot seed issued
	// after that point must be at least that fresh.
	var lastPublished atomic.Uint64
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		n := d.Snapshot().N()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			res, err := e.ApplyUpdates(graph.UpdateBatch{
				AddNodes: 1,
				AddEdges: [][2]graph.NodeID{{graph.NodeID(n + i), 2}}, // inside seed 3's ball
			})
			if err != nil {
				t.Errorf("ApplyUpdates: %v", err)
				return
			}
			lastPublished.Store(res.Epoch)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				floor := lastPublished.Load()
				resp, err := e.Do(ctx, Request{Seed: hotSeed, Method: MethodTEA})
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Errorf("reader: %v", err)
					return
				}
				switch resp.Degraded {
				case DegradedStale:
					// A stale serve is legal under pressure — but only
					// labeled, and always older than the graph's epoch once
					// the response is out.  lastPublished cannot bound it:
					// the writer stores it only after ApplyUpdates returns,
					// while readers can already be served the entries that
					// update parked.
					if now := e.Graph().Epoch(); resp.Epoch >= now {
						t.Errorf("stale response epoch %d not behind published %d", resp.Epoch, now)
						return
					}
				case "":
					if !resp.Coalesced && resp.Epoch < floor {
						t.Errorf("unlabeled response from pre-publish epoch %d < %d (cached=%v)",
							resp.Epoch, floor, resp.Cached)
						return
					}
				default:
					t.Errorf("unexpected label %q", resp.Degraded)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if e.metrics.InvariantChecks.Load() == 0 {
		t.Fatal("no executions happened")
	}
}

func TestRetryAfterSecondsFloorsAtOne(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},               // light-load estimate: would truncate to 0
		{999 * time.Millisecond, 1},         //
		{time.Second, 1},                    // exact boundary
		{time.Second + time.Millisecond, 2}, // just past: rounds up
		{2500 * time.Millisecond, 3},
		{5 * time.Second, 5},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestDrainEstimateWithoutPressureController(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, Pressure: PressureConfig{Disabled: true}})
	// Must not panic (the controller is nil) and must respect the default
	// clamp window.
	d := e.DrainEstimate()
	if d < defaultRetryAfterFloor || d > defaultRetryAfterCeil {
		t.Fatalf("DrainEstimate = %v, want within [%v, %v]", d, defaultRetryAfterFloor, defaultRetryAfterCeil)
	}
}

// TestStatsSchemaMachineReadablePressure asserts the machine-readable
// pressure fields of the /stats JSON schema: a numeric pressure tier and a
// drain estimate in milliseconds, with the tier reading -1 when the
// controller is disabled; and that the matching Prometheus families validate.
func TestStatsSchemaMachineReadablePressure(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	if _, err := e.Do(context.Background(), Request{Seed: 17}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	tier, ok := fields["pressure_tier"].(float64)
	if !ok {
		t.Fatalf("pressure_tier missing or non-numeric in %s", raw)
	}
	if tier < 0 || tier > 3 {
		t.Fatalf("pressure_tier = %g, want 0..3 with the controller enabled", tier)
	}
	drain, ok := fields["drain_estimate_ms"].(float64)
	if !ok {
		t.Fatalf("drain_estimate_ms missing or non-numeric in %s", raw)
	}
	if drain <= 0 {
		t.Fatalf("drain_estimate_ms = %g, want > 0 (clamped to the floor)", drain)
	}
	off := newTestEngine(t, Config{Workers: 2, Pressure: PressureConfig{Disabled: true}})
	if off.Snapshot().PressureTier != -1 {
		t.Fatalf("disabled controller: pressure_tier = %d, want -1", off.Snapshot().PressureTier)
	}

	var buf bytes.Buffer
	e.WritePrometheus(&buf)
	text := buf.String()
	for _, family := range []string{"hkpr_serve_drain_estimate_seconds", "hkpr_serve_pressure_level"} {
		if !strings.Contains(text, family) {
			t.Fatalf("Prometheus exposition missing %s", family)
		}
	}
	if err := promtext.Validate(strings.NewReader(text)); err != nil {
		t.Fatalf("Prometheus exposition invalid: %v", err)
	}
}
