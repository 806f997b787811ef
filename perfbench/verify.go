package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"hkpr"
	"hkpr/internal/graph"
)

// serverOptions and serverEngineConfig are what hkprserver builds its engine
// with at default flags; the in-process engines here must match them for
// their answers to be bit-identical to the server's.
var serverOptions = hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-6}

func serverEngineConfig() hkpr.EngineConfig {
	return hkpr.EngineConfig{
		CacheBytes:     64 << 20,
		DefaultTimeout: 10 * time.Second,
		AdaptiveEWMA:   1,
		TraceBuffer:    256,
	}
}

// clusterReply is the part of a /cluster body the checks read.
type clusterReply struct {
	Seed        int64          `json:"seed"`
	Cluster     []graph.NodeID `json:"cluster"`
	Size        int            `json:"size"`
	Conductance float64        `json:"conductance"`
	Scores      []struct {
		Node  graph.NodeID `json:"node"`
		Score float64      `json:"score"`
	} `json:"scores"`
	Cached   bool   `json:"cached"`
	Epoch    uint64 `json:"epoch"`
	Pushes   int64  `json:"push_operations"`
	Walks    int64  `json:"random_walks"`
	Degraded string `json:"degraded"`
}

// identitySamples is how many window reads are recomputed in-process and
// compared bit for bit.
const identitySamples = 12

// checked is the outcome of checking one run's replies.
type checked struct {
	Reads       []*clusterReply // window reads; nil where the read failed
	WarmUpOK    int             // untimed reads before the window that passed
	ReadOK      int
	Undegraded  int
	Hits        int
	UpdatesOK   int
	Failures    []string // one line per failed check, capped
	failedCount int
	// bodyBytesMean is the mean /cluster body size of the window's reads.
	bodyBytesMean float64
}

func (c *checked) fail(format string, args ...any) {
	c.failedCount++
	if len(c.Failures) < 20 {
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

// checkRun verifies every reply of an untraced run against the benchmark's
// own mirror of the graph.  It runs after the server has stopped.  The mirror
// is a Dynamic that replays the plan's batches, so a reply is checked on the
// epoch it reports; a seeded sample of reads is recomputed by an in-process
// engine at that epoch and must match bit for bit.
func checkRun(g *graph.Graph, p *Plan, run *e2eRun) (*checked, error) {
	dyn := hkpr.NewDynamic(g, hkpr.DynamicOptions{CompactThreshold: -1})
	batches := p.Updates()
	// snaps[e] is the mirror at epoch e: a cache hit reports the epoch its
	// result was computed at, which scoped invalidation lets lag the current
	// one, and is checked there.
	snaps := []*graph.Snapshot{dyn.Snapshot()}
	advance := func(to uint64) error {
		for uint64(len(snaps)) <= to {
			b := batches[len(snaps)-1]
			snap, err := dyn.ApplyUpdates(graph.UpdateBatch{AddEdges: b.Add, RemoveEdges: b.Remove})
			if err != nil {
				return fmt.Errorf("mirror rejected batch %d: %w", len(snaps)-1, err)
			}
			snaps = append(snaps, snap)
		}
		return nil
	}
	c := &checked{Reads: make([]*clusterReply, len(run.Reads))}
	sample := map[int]bool{}
	for _, i := range newRNG(p.Seed, streamSample).Perm(len(run.Reads))[:min(identitySamples, len(run.Reads))] {
		sample[i] = true
	}

	// check verifies one read answered while the server was at epoch now.
	check := func(phase string, r reply, now uint64) *clusterReply {
		if r.Err != nil || r.Status != http.StatusOK {
			c.fail("%s seed %d: status %d err %v", phase, r.Node, r.Status, r.Err)
			return nil
		}
		var cr clusterReply
		if err := json.Unmarshal(r.Body, &cr); err != nil {
			c.fail("%s seed %d: bad body: %v", phase, r.Node, err)
			return nil
		}
		switch {
		case cr.Seed != int64(r.Node):
			c.fail("%s seed %d: reply echoes seed %d", phase, r.Node, cr.Seed)
		case cr.Size != len(cr.Cluster) || cr.Size == 0:
			c.fail("%s seed %d: size %d for a cluster of %d", phase, r.Node, cr.Size, len(cr.Cluster))
		case cr.Epoch > now || (!cr.Cached && cr.Epoch != now):
			c.fail("%s seed %d: epoch %d (cached %v) while the server was at %d", phase, r.Node, cr.Epoch, cr.Cached, now)
		case cr.Conductance != hkpr.Conductance(snaps[cr.Epoch], cr.Cluster):
			c.fail("%s seed %d: conductance %v, mirror recomputes %v at epoch %d", phase, r.Node, cr.Conductance, hkpr.Conductance(snaps[cr.Epoch], cr.Cluster), cr.Epoch)
		case p.TopK > 0 && (len(cr.Scores) == 0 || len(cr.Scores) > p.TopK):
			c.fail("%s seed %d: %d scores for topk=%d", phase, r.Node, len(cr.Scores), p.TopK)
		default:
			return &cr
		}
		return nil
	}

	for _, r := range run.WarmUp {
		if check("warm-up", r, 0) != nil {
			c.WarmUpOK++
		}
	}
	for i, r := range run.Reads {
		if err := advance(run.Epochs[i]); err != nil {
			return nil, err
		}
		cr := check("read", r, run.Epochs[i])
		if cr == nil {
			continue
		}
		if sample[i] {
			if msg := identical(snaps[cr.Epoch], p, cr); msg != "" {
				c.fail("read seed %d at epoch %d: %s", r.Node, cr.Epoch, msg)
				continue
			}
		}
		c.Reads[i] = cr
		c.ReadOK++
		if cr.Degraded == "" {
			c.Undegraded++
		}
		if cr.Cached {
			c.Hits++
		}
	}
	var bodyBytes []float64
	for _, r := range run.Reads {
		bodyBytes = append(bodyBytes, float64(len(r.Body)))
	}
	c.bodyBytesMean = mean(bodyBytes)
	for i, r := range run.Updates {
		if r.Err != nil || r.Status != http.StatusOK {
			c.fail("update %d: status %d err %v: %s", i, r.Status, r.Err, r.Body)
			continue
		}
		var ur struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(r.Body, &ur); err != nil {
			c.fail("update %d: bad body: %v", i, err)
			continue
		}
		if ur.Epoch != uint64(i)+1 {
			c.fail("update %d: epoch %d, want %d", i, ur.Epoch, i+1)
			continue
		}
		c.UpdatesOK++
	}
	// The last batches are checked against the mirror too, so an invalid
	// batch the server happened to accept still fails.
	if err := advance(uint64(len(batches))); err != nil {
		return nil, err
	}

	if p.Workload == warmHits && c.Hits != c.ReadOK {
		c.fail("warm-hits: %d of %d window reads hit the cache, want all", c.Hits, c.ReadOK)
	}
	return c, nil
}

// identical recomputes one reply on an in-process engine pinned to the
// reply's epoch and reports the first difference, or "" when the cluster,
// its conductance, the top-k scores and the work counts all match exactly.
func identical(snap *graph.Snapshot, p *Plan, cr *clusterReply) string {
	eng, err := hkpr.NewEngine(snap, serverOptions, hkpr.EngineConfig{CacheBytes: -1})
	if err != nil {
		return "in-process engine: " + err.Error()
	}
	defer eng.Close()
	resp, err := eng.Do(context.Background(), hkpr.ServeRequest{
		Seed: graph.NodeID(cr.Seed), Sweep: true, TopK: p.TopK, NoCache: true,
	})
	if err != nil {
		return "in-process engine: " + err.Error()
	}
	switch {
	case !slices.Equal(resp.Sweep.Cluster, cr.Cluster):
		return "cluster differs from the in-process engine's"
	case math.Float64bits(resp.Sweep.Conductance) != math.Float64bits(cr.Conductance):
		return "conductance differs from the in-process engine's"
	case resp.Result.Stats.PushOperations != cr.Pushes || resp.Result.Stats.RandomWalks != cr.Walks:
		return "push or walk count differs from the in-process engine's"
	case len(resp.Top) != len(cr.Scores):
		return "top-k length differs from the in-process engine's"
	}
	for i, e := range resp.Top {
		if e.Node != cr.Scores[i].Node || math.Float64bits(e.Score) != math.Float64bits(cr.Scores[i].Score) {
			return fmt.Sprintf("top-k entry %d differs from the in-process engine's", i)
		}
	}
	return ""
}
