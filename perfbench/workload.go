package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"

	"hkpr/internal/graph"
)

// The two workloads.  Each is a pure function of (workload seed, run
// length, graph): the server only ever receives the generated requests.
const (
	warmHits  = "warm-hits"
	updateMix = "update-mix"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{warmHits, updateMix}

// tailPercentile fixes, per workload, the read percentile reported as
// latency_tail_ms.  Each is the highest candidate that leaves at least
// minBeyond samples above it at the default run length and that repeated
// within its bound across seeds.
var tailPercentile = map[string]float64{
	warmHits:  99,
	updateMix: 95,
}

// updateTailPercentile is the same choice for update_latency_tail_ms.
var updateTailPercentile = map[string]float64{
	warmHits:  80,
	updateMix: 80,
}

// Plan sizes.  Read counts scale with the requested run length at a nominal
// rate for the 2-vCPU machine the bounds were set on, so a run measures about
// --seconds while every count stays a function of the inputs alone (a
// deadline-cut window would make hit rates and means depend on speed).
const (
	warmReadsPerSecond    = 2400
	updateRoundsPerSecond = 6
	minUpdateRounds       = 16

	// warm-hits ends with probeUpdates timed batches, one every probeGap
	// (see loadgen.go).
	probeUpdates = 60
	warmTopK     = 20

	// hotSize is the hot set of warm-hits and update-mix.  The result cache
	// splits its budget over 16 LRU shards, 3.5 MiB each at the default
	// -cache-mb 64, and an entry here is 0.4-2.6 MB, so a shard holds about
	// five.  A hot set of 48 (half the whole budget) overflows some shard for
	// most draws, and an overflowing shard evicts in an order the two
	// clients' interleaving decides, so hit counts would stop repeating;
	// eight fit.
	hotSize = 8

	// Update batches (see flipper): hotFlips sets how many hot entries one
	// batch invalidates, and so update-mix's hit share; a run's batches
	// apply compactRounds x graph.DefaultCompactThreshold overlay operations,
	// enough for at least three background compactions.
	hotFlips      = 1
	compactRounds = 3.5
	pairNodesCap  = 24 // neighbours per target whose pairs may be flipped
	minEligDegree = 16 // hot seeds and update targets have degree in
	maxEligDegree = 64 // [minEligDegree, maxEligDegree]
)

// RNG streams, one per purpose, so resizing one part of a plan never shifts
// the draws of another.  The values are fixed: they pick the draws, the hot
// set's among them.
const (
	streamHot     uint64 = 2
	streamZipf    uint64 = 3
	streamRounds  uint64 = 4
	streamBatches uint64 = 5
	streamSample  uint64 = 7
)

// Batch is one POST /update body: edge insertions and deletions.
type Batch struct {
	Add    [][2]graph.NodeID
	Remove [][2]graph.NodeID
}

// Ops is the number of overlay operations the batch adds to a Dynamic.
func (b Batch) Ops() int { return len(b.Add) + len(b.Remove) }

// Round is a set of reads followed, once every read has completed, by an
// optional update.  Within a round no seed repeats, so two concurrent clients
// never coalesce onto one execution and each read's hit or miss is fixed by
// the plan alone.
type Round struct {
	Reads  []graph.NodeID
	Update *Batch
}

// Plan is every request one run sends, in order.
type Plan struct {
	Workload string
	Seed     uint64
	TopK     int
	WarmUp   []graph.NodeID // untimed reads before the window
	Window   []Round        // the timed window
	Probe    []Batch        // timed updates after the window
}

// Reads is the number of reads in the timed window.
func (p *Plan) Reads() int {
	n := 0
	for _, r := range p.Window {
		n += len(r.Reads)
	}
	return n
}

// Updates lists every timed update batch: the window's, then the probe's.
func (p *Plan) Updates() []Batch {
	var out []Batch
	for _, r := range p.Window {
		if r.Update != nil {
			out = append(out, *r.Update)
		}
	}
	return append(out, p.Probe...)
}

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// sampleNodes draws k distinct nodes satisfying keep, uniformly, by a partial
// Fisher-Yates shuffle of the qualifying node list.
func sampleNodes(g *graph.Graph, rng *rand.Rand, k int, keep func(graph.NodeID) bool) ([]graph.NodeID, error) {
	var pool []graph.NodeID
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if keep(v) {
			pool = append(pool, v)
		}
	}
	if len(pool) < k {
		return nil, fmt.Errorf("graph has %d qualifying nodes, the plan needs %d", len(pool), k)
	}
	for i := 0; i < k; i++ {
		j := i + rng.IntN(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k:k], nil
}

func eligible(g *graph.Graph) func(graph.NodeID) bool {
	return func(v graph.NodeID) bool {
		d := g.Degree(v)
		return d >= minEligDegree && d <= maxEligDegree
	}
}

// hotSeedDraw fixes the hot set of warm-hits and update-mix: with only
// hotSize seeds, which seeds they are would set most of a run's latency, so
// the workload seed draws the request sequence and the batches, not the set.
const hotSeedDraw = 1

// hotSet is the hot set of warm-hits and update-mix, in Zipf rank order.
func hotSet(g *graph.Graph) ([]graph.NodeID, error) {
	return sampleNodes(g, newRNG(hotSeedDraw, streamHot), hotSize, eligible(g))
}

// BuildPlan generates the plan for one workload.  The same (workload, seed,
// seconds, graph) always gives the same plan.
func BuildPlan(g *graph.Graph, workload string, seed uint64, seconds int) (*Plan, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	p := &Plan{Workload: workload, Seed: seed}
	rounds := max(minUpdateRounds, updateRoundsPerSecond*seconds)
	// Every workload's batches have update-mix's size: together its rounds'
	// batches apply compactRounds x graph.DefaultCompactThreshold operations.
	ops := int(compactRounds*float64(graph.DefaultCompactThreshold))/rounds + 1
	switch workload {
	case warmHits:
		hot, err := hotSet(g)
		if err != nil {
			return nil, err
		}
		p.TopK = warmTopK
		p.WarmUp = hot
		zr := newRNG(seed, streamZipf)
		zipf := rand.NewZipf(zr, 1.1, 1, uint64(len(hot)-1))
		reads := make([]graph.NodeID, warmReadsPerSecond*seconds)
		for i := range reads {
			reads[i] = hot[zipf.Uint64()]
		}
		p.Window = []Round{{Reads: reads}}
		p.Probe = newFlipper(g, hot, seed).batches(probeUpdates, ops)
	case updateMix:
		hot, err := hotSet(g)
		if err != nil {
			return nil, err
		}
		p.WarmUp = hot
		batches := newFlipper(g, hot, seed).batches(rounds, ops)
		rr := newRNG(seed, streamRounds)
		p.Window = make([]Round, rounds)
		for i := range p.Window {
			reads := make([]graph.NodeID, len(hot))
			for j, k := range rr.Perm(len(hot)) {
				reads[j] = hot[k]
			}
			p.Window[i] = Round{Reads: reads, Update: &batches[i]}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return p, nil
}

// flipper generates update batches that are valid by construction: it keeps
// its own mirror of which node pairs are edges and flips chosen pairs, so a
// present pair is removed and an absent one added.
//
// A batch has two parts.  hotFlips pairs lie inside the 1-hop neighbourhoods
// of hot seeds: the server drops every cached result within
// serve.DefaultInvalidateRadius (2) hops of an updated edge, so these decide
// which hot entries the batch invalidates.  The rest are background flips of
// edges whose endpoints are at least farHops from every hot seed; they bring
// the overlay to the compaction threshold without invalidating any hot entry.
// (On this graph one hot flip already reaches about 3 of 16 random hot
// seeds, so only a background keeps a run's invalidations, and with them its
// hit share, near a chosen value.)  Pairs never include a hot seed, so hot seeds keep
// their degree and never become isolated.
type flipper struct {
	g       *graph.Graph
	rng     *rand.Rand
	hot     []graph.NodeID
	flipped map[[2]graph.NodeID]bool // pairs whose presence differs from g
	pairs   map[graph.NodeID][][2]graph.NodeID
	far     [][2]graph.NodeID // background pairs: base edges far from the hot set
}

// farHops is the least distance from every hot seed of a background flip's
// endpoints: an invalidation ball of radius 2 around them reaches no hot seed.
const farHops = 3

func newFlipper(g *graph.Graph, hot []graph.NodeID, seed uint64) *flipper {
	f := &flipper{
		g:       g,
		rng:     newRNG(seed, streamBatches),
		hot:     hot,
		flipped: make(map[[2]graph.NodeID]bool),
		pairs:   make(map[graph.NodeID][][2]graph.NodeID),
	}
	// Multi-source BFS from the hot set, stopped at farHops.
	dist := make([]int8, g.N())
	for i := range dist {
		dist[i] = farHops
	}
	frontier := slices.Clone(hot)
	for _, v := range hot {
		dist[v] = 0
	}
	for d := int8(1); d < farHops && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if dist[u] == farHops {
					dist[u] = d
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if dist[v] < farHops {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if v < u && dist[u] == farHops {
				f.far = append(f.far, [2]graph.NodeID{v, u})
			}
		}
	}
	return f
}

// pairsOf lists the flippable pairs around hot seed s: every pair of its
// first pairNodesCap neighbours that are not hot seeds themselves.
func (f *flipper) pairsOf(s graph.NodeID) [][2]graph.NodeID {
	if ps, ok := f.pairs[s]; ok {
		return ps
	}
	var nodes []graph.NodeID
	for _, u := range f.g.Neighbors(s) {
		if !slices.Contains(f.hot, u) && len(nodes) < pairNodesCap {
			nodes = append(nodes, u)
		}
	}
	var ps [][2]graph.NodeID
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			ps = append(ps, [2]graph.NodeID{min(u, v), max(u, v)})
		}
	}
	f.pairs[s] = ps
	return ps
}

func (f *flipper) present(p [2]graph.NodeID) bool {
	return f.g.HasEdge(p[0], p[1]) != f.flipped[p]
}

// batches generates n batches of perBatch flips: batch i flips one random
// pair around each of hotFlips hot seeds, taken round-robin from i*hotFlips,
// and background pairs for the rest.
func (f *flipper) batches(n, perBatch int) []Batch {
	out := make([]Batch, n)
	for i := range out {
		seen := make(map[[2]graph.NodeID]bool)
		for k := range min(hotFlips, len(f.hot)) {
			if ps := f.pairsOf(f.hot[(i*hotFlips+k)%len(f.hot)]); len(ps) > 0 {
				seen[ps[f.rng.IntN(len(ps))]] = true
			}
		}
		for len(seen) < perBatch && len(seen) < len(f.far) {
			seen[f.far[f.rng.IntN(len(f.far))]] = true
		}
		// Emit in a fixed order: map iteration order is random.
		pairs := make([][2]graph.NodeID, 0, len(seen))
		for pr := range seen {
			pairs = append(pairs, pr)
		}
		slices.SortFunc(pairs, func(a, b [2]graph.NodeID) int {
			if a[0] != b[0] {
				return int(a[0] - b[0])
			}
			return int(a[1] - b[1])
		})
		var b Batch
		for _, pr := range pairs {
			if f.present(pr) {
				b.Remove = append(b.Remove, pr)
			} else {
				b.Add = append(b.Add, pr)
			}
			f.flipped[pr] = !f.flipped[pr]
		}
		out[i] = b
	}
	return out
}

// Digest is a short hash of every request the plan sends, in order.
func (p *Plan) Digest() string {
	h := sha256.New()
	var buf []byte
	putNodes := func(tag byte, vs []graph.NodeID) {
		buf = append(buf[:0], tag)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vs)))
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h.Write(buf)
	}
	putBatch := func(b *Batch) {
		for _, side := range [][][2]graph.NodeID{b.Add, b.Remove} {
			flat := make([]graph.NodeID, 0, 2*len(side))
			for _, e := range side {
				flat = append(flat, e[0], e[1])
			}
			putNodes('e', flat)
		}
	}
	fmt.Fprintf(h, "%s|%d|%d|", p.Workload, p.Seed, p.TopK)
	putNodes('w', p.WarmUp)
	for i := range p.Window {
		putNodes('r', p.Window[i].Reads)
		if u := p.Window[i].Update; u != nil {
			putBatch(u)
		}
	}
	for i := range p.Probe {
		putBatch(&p.Probe[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
