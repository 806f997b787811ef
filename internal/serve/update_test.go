package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"hkpr/internal/core"
	"hkpr/internal/gen"
	"hkpr/internal/graph"
)

// twoComponentDynamic builds a Dynamic over two disconnected 50-node paths
// (component A: 0..49, component B: 50..99).  Updates inside one component
// can never reach the other within any BFS radius, which is exactly the
// situation scoped invalidation must exploit.
func twoComponentDynamic(t testing.TB) *graph.Dynamic {
	t.Helper()
	var edges [][2]graph.NodeID
	for i := 0; i < 49; i++ {
		edges = append(edges, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)})
		edges = append(edges, [2]graph.NodeID{graph.NodeID(50 + i), graph.NodeID(50 + i + 1)})
	}
	return graph.NewDynamic(graph.FromEdges(100, edges), graph.DynamicOptions{CompactThreshold: -1})
}

func dynamicTestEngine(t testing.TB, d *graph.Dynamic, cfg Config) *Engine {
	t.Helper()
	est, err := core.NewEstimator(d, core.Options{
		T: 5, EpsRel: 0.5, Delta: 1 / float64(d.Snapshot().N()), FailureProb: 1e-4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestApplyUpdatesScopedInvalidation(t *testing.T) {
	d := twoComponentDynamic(t)
	e := dynamicTestEngine(t, d, Config{Workers: 2})
	ctx := context.Background()

	// Warm the cache: one seed near the upcoming update (node 3, within
	// radius 2 of endpoint 2), one far away in the same component (node 40),
	// one in the other component (node 80).
	near, err := e.Do(ctx, Request{Seed: 3, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	far, err := e.Do(ctx, Request{Seed: 40, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Do(ctx, Request{Seed: 80, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Response{near, far, other} {
		if r.Cached || r.Epoch != 0 {
			t.Fatalf("warmup response cached=%v epoch=%d, want fresh epoch-0 execution", r.Cached, r.Epoch)
		}
	}

	// Publish a shortcut edge (2, 10) inside component A.
	res, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{2, 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.AddedEdges != 1 || res.AddedNodes != 0 || res.RemovedEdges != 0 {
		t.Fatalf("unexpected UpdateResult %+v", res)
	}
	// Radius-2 ball around {2, 10} on the path plus the new edge:
	// {0,1,2,3,4, 8,9,10,11,12} = 10 nodes.
	if res.Affected != 10 {
		t.Fatalf("Affected = %d, want 10", res.Affected)
	}
	if res.Invalidated != 1 {
		t.Fatalf("Invalidated = %d, want exactly the seed-3 entry", res.Invalidated)
	}
	if got := e.Graph().Epoch(); got != 1 {
		t.Fatalf("Engine.Graph().Epoch() = %d after update, want 1", got)
	}

	// The outside-radius entries survive and serve zero-copy hits: the cached
	// Result pointers are the very ones the warmup responses carried.
	farHit, err := e.Do(ctx, Request{Seed: 40, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if !farHit.Cached || farHit.Result != far.Result {
		t.Fatalf("far-seed entry: cached=%v shared=%v, want a zero-copy hit surviving the update",
			farHit.Cached, farHit.Result == far.Result)
	}
	if farHit.Epoch != 0 {
		t.Fatalf("surviving entry's epoch = %d, want its compute epoch 0", farHit.Epoch)
	}
	otherHit, err := e.Do(ctx, Request{Seed: 80, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if !otherHit.Cached || otherHit.Result != other.Result {
		t.Fatal("other-component entry did not survive the update as a zero-copy hit")
	}

	// The in-ball entry was dropped: the same query re-executes on the new
	// epoch and sees the new edge.
	nearMiss, err := e.Do(ctx, Request{Seed: 3, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if nearMiss.Cached {
		t.Fatal("in-ball entry served a stale cache hit after the update")
	}
	if nearMiss.Epoch != 1 {
		t.Fatalf("re-executed query's epoch = %d, want 1", nearMiss.Epoch)
	}

	m := e.metrics
	if got := m.UpdatesApplied.Load(); got != 1 {
		t.Fatalf("UpdatesApplied = %d, want 1", got)
	}
	if got := m.CacheInvalidatedRadius.Load(); got != 1 {
		t.Fatalf("CacheInvalidatedRadius = %d, want 1", got)
	}
	if got := m.GraphEpoch.Load(); got != 1 {
		t.Fatalf("GraphEpoch metric = %d, want 1", got)
	}
	snap := e.Snapshot()
	if snap.UpdatesApplied != 1 || snap.GraphEpoch != 1 || snap.CacheInvalidatedRadius != 1 {
		t.Fatalf("stats snapshot missing update counters: %+v", snap)
	}
}

func TestApplyUpdatesStaticGraph(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{0, 1}}}); !errors.Is(err, ErrStaticGraph) {
		t.Fatalf("ApplyUpdates on static engine: err = %v, want ErrStaticGraph", err)
	}
}

func TestApplyUpdatesRejectsInvalidBatch(t *testing.T) {
	d := twoComponentDynamic(t)
	e := dynamicTestEngine(t, d, Config{Workers: 1})
	if _, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{7, 7}}}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self-loop batch: err = %v, want graph.ErrSelfLoop", err)
	}
	if _, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{0, 1}}}); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("duplicate batch: err = %v, want graph.ErrDuplicateEdge", err)
	}
	if got := e.metrics.UpdatesApplied.Load(); got != 0 {
		t.Fatalf("rejected batches counted as applied: %d", got)
	}
	if got := d.Epoch(); got != 0 {
		t.Fatalf("rejected batch advanced the epoch to %d", got)
	}
}

// TestStaleEpochCacheGuard pins the populate-time race closure: a result
// whose execution straddles an epoch publish must not enter the cache (it was
// computed against the superseded epoch and the invalidation scan could not
// have seen it).
func TestStaleEpochCacheGuard(t *testing.T) {
	d := twoComponentDynamic(t)
	e := dynamicTestEngine(t, d, Config{Workers: 1})
	ctx := context.Background()

	// The audit hook runs after the estimator finished (the execution has
	// pinned its epoch-0 snapshot and built its result) but before the cache
	// population — exactly the window an epoch publish must be guarded
	// against.  The update touches the other component, so scoped
	// invalidation alone would never drop the entry.
	published := false
	e.auditHook = func(*core.InvariantAudit) {
		if published {
			return
		}
		published = true
		if _, err := e.ApplyUpdates(graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{2, 10}}}); err != nil {
			t.Error(err)
		}
	}

	resp, err := e.Do(ctx, Request{Seed: 60, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 0 {
		t.Fatalf("straddling query's epoch = %d, want the pinned 0", resp.Epoch)
	}
	if got := e.metrics.CacheInvalidatedStale.Load(); got != 1 {
		t.Fatalf("CacheInvalidatedStale = %d, want 1", got)
	}
	// The stale result never entered the cache: the repeat executes afresh on
	// the new epoch.
	again, err := e.Do(ctx, Request{Seed: 60, Method: MethodTEA})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("stale-epoch result was served from the cache")
	}
	if again.Epoch != 1 {
		t.Fatalf("repeat query's epoch = %d, want 1", again.Epoch)
	}
}

// bfsBallOracle marks every node whose BFS distance on s from some endpoint
// of the batch's edges is at most radius, running one independent
// single-source BFS per endpoint.
func bfsBallOracle(s *graph.Snapshot, batch graph.UpdateBatch, radius int) []bool {
	in := make([]bool, s.N())
	var endpoints []graph.NodeID
	for _, e := range slices.Concat(batch.AddEdges, batch.RemoveEdges) {
		endpoints = append(endpoints, e[0], e[1])
	}
	for _, src := range endpoints {
		dist := make([]int, s.N())
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []graph.NodeID{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range s.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for v, d := range dist {
			if d >= 0 && d <= radius {
				in[v] = true
			}
		}
	}
	return in
}

// TestAffectedBallMatchesBFSOracle checks the radius-invalidation ball, the
// reported UpdateResult.Affected and the set of invalidated cache entries
// against an independent BFS-distance oracle, for added edges, removed edges
// and edges to freshly added nodes.
func TestAffectedBallMatchesBFSOracle(t *testing.T) {
	g, err := gen.PowerlawCluster(300, 3, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(g.N())
	nbrs := g.Neighbors(5)
	far := graph.NodeID(0)
	for g.HasEdge(7, far) || far == 7 {
		far++
	}
	cases := []struct {
		name  string
		batch graph.UpdateBatch
	}{
		{"add", graph.UpdateBatch{AddEdges: [][2]graph.NodeID{{7, far}}}},
		{"remove", graph.UpdateBatch{RemoveEdges: [][2]graph.NodeID{{5, nbrs[0]}, {5, nbrs[1]}}}},
		{"add-nodes", graph.UpdateBatch{AddNodes: 2, AddEdges: [][2]graph.NodeID{{n, 11}, {n + 1, n}}}},
		{"mixed", graph.UpdateBatch{
			AddNodes:    1,
			AddEdges:    [][2]graph.NodeID{{n, 42}, {7, far}},
			RemoveEdges: [][2]graph.NodeID{{5, nbrs[0]}},
		}},
	}
	for _, c := range cases {
		batch := c.batch
		for radius := 0; radius <= 2; radius++ {
			t.Run(fmt.Sprintf("%s/r=%d", c.name, radius), func(t *testing.T) {
				d := graph.NewDynamic(g, graph.DynamicOptions{CompactThreshold: -1})
				snap, err := d.ApplyUpdates(batch)
				if err != nil {
					t.Fatal(err)
				}
				want := bfsBallOracle(snap, batch, radius)
				got, size := affectedBall(snap, batch, radius)
				if !slices.Equal(got, want) {
					t.Fatalf("ball differs from the BFS oracle")
				}
				wantSize := 0
				for _, in := range want {
					if in {
						wantSize++
					}
				}
				if size != wantSize {
					t.Fatalf("size = %d, oracle %d", size, wantSize)
				}
				if radius == 0 {
					return // the engine clamps radius 0 to the default
				}

				// Engine level: Affected and exactly the in-ball cached
				// seeds are invalidated; every other entry keeps hitting.
				d = graph.NewDynamic(g, graph.DynamicOptions{CompactThreshold: -1})
				e := dynamicTestEngine(t, d, Config{Workers: 1, InvalidateRadius: radius})
				ctx := context.Background()
				for s := graph.NodeID(0); s < n; s += 7 {
					if _, err := e.Do(ctx, Request{Seed: s, Method: MethodTEA}); err != nil {
						t.Fatal(err)
					}
				}
				res, err := e.ApplyUpdates(batch)
				if err != nil {
					t.Fatal(err)
				}
				if res.Affected != wantSize {
					t.Fatalf("Affected = %d, oracle %d", res.Affected, wantSize)
				}
				var wantInvalidated int64
				for s := graph.NodeID(0); s < n; s += 7 {
					if want[s] {
						wantInvalidated++
					}
					r, err := e.Do(ctx, Request{Seed: s, Method: MethodTEA})
					if err != nil {
						t.Fatal(err)
					}
					if r.Cached == want[s] {
						t.Fatalf("seed %d: cached=%v after the update, in ball=%v", s, r.Cached, want[s])
					}
				}
				if res.Invalidated != wantInvalidated {
					t.Fatalf("Invalidated = %d, oracle %d", res.Invalidated, wantInvalidated)
				}
			})
		}
	}
}
