package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hkpr"
	"hkpr/internal/baselines"
	"hkpr/internal/cluster"
	"hkpr/internal/core"
	"hkpr/internal/graph"
)

// The traced run replays a plan in-process and times the calls into each
// module's public functions from here, around the calls; the program itself
// gains no tracing.  It runs after the untraced run has finished, so its
// timers never touch the end-to-end numbers.

// graphLoads is how many times the traced run loads the edge list; the median
// is graph.load_s.
const graphLoads = 3

// exactSeeds is how many executed queries per run are checked against the
// exact power-method HKPR vector (plus one at a later epoch on update-mix).
const exactSeeds = 2

// moduleSamples caps how many executed reads are re-timed at module level, so
// a traced run stays within a few times its window.
const moduleSamples = 240

// miss is one executed (uncached) read of the engine replay, with the module
// calls later timed on the same seed and snapshot.
type miss struct {
	v         graph.NodeID
	snap      *graph.Snapshot
	resp      *hkpr.ServeResponse
	do, queue time.Duration

	res          *core.Result
	teaPlus, swp time.Duration
}

// updateSample is one batch applied through the engine and, separately,
// straight to a graph.Dynamic.
type updateSample struct {
	engine, graph time.Duration
	invalidated   int64
}

// replay holds what the traced replay measured.
type replay struct {
	loads      []float64
	mu         sync.Mutex
	misses     []*miss // every executed read, in (epoch, seed) order
	sampled    []*miss // the misses re-timed at module level
	hits       []time.Duration
	updates    []updateSample
	failures   []string
	winReads   int
	winHits    atomic.Int64
	winExecs   int64
	compaction int
	exact      int
}

func (r *replay) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// tracedReplay runs the plan through an in-process engine configured like
// hkprserver at default flags, with the same closed loop of clients, timing
// each Engine.Do and Engine.ApplyUpdates; every batch is also applied to a
// bare graph.Dynamic and timed there.  Afterwards, with the same closed loop,
// it times core's TEA+ and cluster's sweep on a sample of the executed reads,
// each on the snapshot the engine answered from.
func tracedReplay(graphPath string, p *Plan) (*replay, error) {
	r := &replay{}
	var g *graph.Graph
	for range graphLoads {
		start := time.Now()
		loaded, err := hkpr.LoadEdgeListFile(graphPath)
		if err != nil {
			return nil, err
		}
		r.loads = append(r.loads, time.Since(start).Seconds())
		g = loaded
	}
	dyn := hkpr.NewDynamic(g, hkpr.DynamicOptions{})
	eng, err := hkpr.NewEngine(dyn, serverOptions, serverEngineConfig())
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	bare := hkpr.NewDynamic(g, hkpr.DynamicOptions{})

	// read times one Engine.Do.
	read := func(vs []graph.NodeID, window bool) func(int, int) {
		return func(_, i int) {
			v := vs[i]
			start := time.Now()
			resp, err := eng.Do(context.Background(), hkpr.ServeRequest{Seed: v, Sweep: true, TopK: p.TopK})
			d := time.Since(start)
			if err != nil {
				r.fail("engine read seed %d: %v", v, err)
				return
			}
			// Updates run only between rounds, so the current snapshot is the
			// one an execution of this round answered from.
			snap := eng.Graph()
			r.mu.Lock()
			defer r.mu.Unlock()
			switch {
			case resp.Cached:
				if window {
					r.winHits.Add(1)
				}
				r.hits = append(r.hits, d)
			case resp.Epoch != snap.Epoch():
				r.failures = append(r.failures, fmt.Sprintf("seed %d: executed at epoch %d during epoch %d", v, resp.Epoch, snap.Epoch()))
			default:
				r.misses = append(r.misses, &miss{v: v, snap: snap, resp: resp, do: d, queue: resp.QueueWait})
			}
		}
	}
	update := func(b *Batch) {
		ub := graph.UpdateBatch{AddEdges: b.Add, RemoveEdges: b.Remove}
		start := time.Now()
		res, err := eng.ApplyUpdates(ub)
		de := time.Since(start)
		if err != nil {
			r.fail("engine update: %v", err)
			return
		}
		start = time.Now()
		_, err = bare.ApplyUpdates(ub)
		dg := time.Since(start)
		if err != nil {
			r.fail("graph update: %v", err)
			return
		}
		r.updates = append(r.updates, updateSample{engine: de, graph: dg, invalidated: res.Invalidated})
	}

	closedLoop(len(p.WarmUp), read(p.WarmUp, false))
	execs := eng.Stats().Executions
	for _, round := range p.Window {
		closedLoop(len(round.Reads), read(round.Reads, true))
		r.winReads += len(round.Reads)
		if round.Update != nil {
			update(round.Update)
		}
	}
	r.winExecs = eng.Stats().Executions - execs
	for i := range p.Probe {
		time.Sleep(probeGap)
		update(&p.Probe[i])
	}
	dyn.WaitCompaction()
	bare.WaitCompaction()
	r.compaction = len(dyn.CompactionPauses())
	eng.Close()

	slices.SortFunc(r.misses, func(a, b *miss) int {
		if a.snap.Epoch() != b.snap.Epoch() {
			return int(a.snap.Epoch()) - int(b.snap.Epoch())
		}
		return int(a.v - b.v)
	})
	stride := max(1, (len(r.misses)+moduleSamples-1)/moduleSamples)
	for i := 0; i < len(r.misses); i += stride {
		r.sampled = append(r.sampled, r.misses[i])
	}
	opts := serverOptions
	opts.Delta = 1 / float64(g.N()) // as hkpr.NewEngine defaults it
	est, err := core.NewEstimator(dyn, opts)
	if err != nil {
		return nil, err
	}
	closedLoop(len(r.sampled), func(_, i int) { r.timeEstimate(est, r.sampled[i]) })

	later := false
	for i, m := range r.sampled {
		if m.res == nil || !(i < exactSeeds || (!later && m.snap.Epoch() > 0)) {
			continue
		}
		later = later || m.snap.Epoch() > 0
		r.exact++
		if msg := checkExact(m.snap, m.res, est.Options()); msg != "" {
			r.fail("seed %d at epoch %d: %s", m.v, m.snap.Epoch(), msg)
		}
	}
	return r, nil
}

// timeEstimate times TEA+ and the sweep on a miss's seed and snapshot and
// checks that they reproduce the engine's answer.
func (r *replay) timeEstimate(est *core.Estimator, m *miss) {
	start := time.Now()
	res, err := est.TEAPlusContext(core.OptionsContext{Snapshot: m.snap}, m.v, core.Options{})
	m.teaPlus = time.Since(start)
	if err != nil {
		r.fail("TEA+ seed %d: %v", m.v, err)
		return
	}
	start = time.Now()
	sw := cluster.Sweep(m.snap, res.Scores)
	m.swp = time.Since(start)
	m.res = res
	if !slices.Equal(sw.Cluster, m.resp.Sweep.Cluster) || sw.Conductance != m.resp.Sweep.Conductance {
		r.fail("seed %d: direct TEA+ and sweep differ from the engine's cluster", m.v)
	}
}

// checkExact compares every node whose exact normalized HKPR exceeds delta
// with the estimate: the paper's guarantee is relative error at most er
// there, with probability 1-pf, so with pf = 1e-6 any miss is a bug.
func checkExact(snap *graph.Snapshot, res *core.Result, o core.Options) string {
	g := snap.Materialize()
	exact, err := baselines.Exact(g, res.Seed, baselines.ExactOptions{T: o.T})
	if err != nil {
		return "exact: " + err.Error()
	}
	checked := 0
	for _, e := range exact.Scores {
		d := g.Degree(e.Node)
		if d == 0 {
			continue
		}
		want := e.Score / float64(d)
		if want <= o.Delta {
			continue
		}
		checked++
		if got := res.NormalizedEstimate(e.Node, d); math.Abs(got-want) > o.EpsRel*want {
			return fmt.Sprintf("node %d: normalized estimate %g, exact %g, beyond relative error %g", e.Node, got, want, o.EpsRel)
		}
	}
	if checked == 0 {
		return "no node above delta to check"
	}
	return ""
}
