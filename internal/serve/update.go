package serve

import (
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/trace"
)

// UpdateResult summarizes one published update batch.
type UpdateResult struct {
	// Epoch is the snapshot epoch the batch published.
	Epoch uint64 `json:"epoch"`
	// AddedNodes, AddedEdges and RemovedEdges echo the batch's accepted size.
	AddedNodes   int `json:"added_nodes"`
	AddedEdges   int `json:"added_edges"`
	RemovedEdges int `json:"removed_edges"`
	// Affected is the size of the invalidation neighborhood: the nodes within
	// Config.InvalidateRadius hops of any updated edge's endpoints.
	Affected int `json:"affected"`
	// Invalidated is the number of cached results dropped because their seed
	// fell inside the affected neighborhood.
	Invalidated int64 `json:"invalidated"`
	// Elapsed is the end-to-end time of the apply: validation, epoch build,
	// publication, neighborhood BFS and cache scan.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ApplyUpdates validates and publishes one graph update batch as a new epoch
// snapshot, then invalidates exactly the cached results whose seed lies within
// Config.InvalidateRadius hops of an updated edge (heat-kernel mass is
// push-local, so entries outside the ball are unaffected and keep serving
// zero-copy hits).  In-flight queries are never torn: each pinned its own
// snapshot at admission, and results computed against the superseded epoch are
// discarded at cache-population time (counted as reason "stale-epoch").
//
// The batch is all-or-nothing: a validation error (graph.ErrSelfLoop,
// graph.ErrDuplicateEdge, graph.ErrEdgeNotFound, graph.ErrInvalidNode, all
// wrapped with the offending edge) leaves the graph, the epoch and the cache
// untouched.  Engines built over a static graph return ErrStaticGraph.
//
// Updates must route through this method rather than directly through the
// underlying *graph.Dynamic: a direct publish bypasses the scoped cache
// invalidation (the stale-epoch guard still protects new insertions, but
// existing in-ball entries would keep serving pre-update results).
func (e *Engine) ApplyUpdates(batch graph.UpdateBatch) (UpdateResult, error) {
	if e.dyn == nil {
		return UpdateResult{}, ErrStaticGraph
	}
	start := time.Now()
	var qt *trace.QueryTrace
	if e.ring != nil {
		qt = trace.Get(start)
		qt.Seed = -1
		qt.Method = "update"
	}
	// The engine lock serializes the {publish + invalidate} pair against the
	// {epoch-check + cache-set} pair in populateCache: no freshly computed
	// result can enter the cache between the epoch flipping and the
	// invalidation scan.  Lock order is e.mu -> dyn's internal lock; nothing
	// acquires them in the other order.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		trace.Put(qt)
		return UpdateResult{}, ErrClosed
	}
	applyStart := time.Now()
	snap, err := e.dyn.ApplyUpdates(batch)
	applyD := time.Since(applyStart)
	if err != nil {
		e.mu.Unlock()
		trace.Put(qt)
		return UpdateResult{}, err
	}
	e.metrics.observeStage(trace.StageUpdate, applyD)
	qt.Observe(trace.StageUpdate, applyStart, applyD)
	e.metrics.UpdatesApplied.Add(1)
	e.metrics.GraphEpoch.Store(snap.Epoch())

	invStart := time.Now()
	var invalidated int64
	var affected int
	if e.cache != nil {
		// BFS on the NEW snapshot: added edges must conduct (their endpoints'
		// new neighborhoods are reachable), and removed edges' endpoints are
		// seeded directly so their former neighborhoods are covered too.
		var in []bool
		in, affected = affectedBall(snap, batch, e.cfg.InvalidateRadius)
		if affected > 0 {
			// Node counts never shrink, so every cached seed indexes in.
			pred := func(r *Response) bool { return in[r.Seed] }
			if e.stale != nil {
				// Radius-invalidated entries migrate into the stale arena
				// (same key, same shared Response, same exact byte cost)
				// instead of being freed, so pressure tiers can serve them
				// labeled DegradedStale while a background revalidation
				// recomputes.  The arena takes only its own lock, keeping the
				// cacheShard.mu -> staleArena.mu order acyclic.
				invalidated = e.cache.invalidateCollect(pred, e.stale.put)
			} else {
				invalidated = e.cache.invalidate(pred)
			}
		}
	}
	invD := time.Since(invStart)
	e.metrics.observeStage(trace.StageInvalidate, invD)
	qt.Observe(trace.StageInvalidate, invStart, invD)
	e.metrics.CacheInvalidatedRadius.Add(invalidated)
	e.mu.Unlock()

	if qt != nil {
		rec := qt.Finish(time.Now(), "")
		trace.Put(qt)
		e.ring.add(rec)
	}
	return UpdateResult{
		Epoch:        snap.Epoch(),
		AddedNodes:   batch.AddNodes,
		AddedEdges:   len(batch.AddEdges),
		RemovedEdges: len(batch.RemoveEdges),
		Affected:     affected,
		Invalidated:  invalidated,
		Elapsed:      time.Since(start),
	}, nil
}

// affectedBall returns the nodes within radius hops (BFS on s) of any endpoint
// of the batch's added or removed edges, as a dense membership slice of
// length s.N() plus its member count.  Radius 0 is just the endpoints
// themselves.  A 2-hop ball on a power-law graph can cover a large share of
// the nodes, so membership is a flat slice rather than a hash set.
func affectedBall(s *graph.Snapshot, batch graph.UpdateBatch, radius int) (in []bool, size int) {
	in = make([]bool, s.N())
	var frontier []graph.NodeID
	seed := func(v graph.NodeID) {
		if v < 0 || int(v) >= len(in) || in[v] {
			return
		}
		in[v] = true
		size++
		frontier = append(frontier, v)
	}
	for _, edge := range batch.AddEdges {
		seed(edge[0])
		seed(edge[1])
	}
	for _, edge := range batch.RemoveEdges {
		seed(edge[0])
		seed(edge[1])
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, u := range s.Neighbors(v) {
				if !in[u] {
					in[u] = true
					size++
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return in, size
}
