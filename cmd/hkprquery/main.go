// Command hkprquery runs local clustering queries: it loads a graph,
// estimates the heat kernel PageRank vector of one or more seed nodes with
// the chosen algorithm, performs the sweep cut, and prints the resulting
// cluster of every seed.
//
// Multiple comma-separated seeds execute as one batched call (EstimateMany):
// the seeds share a single multi-source graph pass, and every seed's result
// is bit-identical to a standalone single-seed run.
//
// With -updates the graph is wrapped as a live-updatable Dynamic and an
// edge-list delta is applied before querying: each line is "u v" (add an
// edge), "+ u v" / "add u v" (add), or "- u v" / "del u v" (remove); '#'
// starts a comment.  Added edges may reference nodes beyond the loaded
// graph — the node range grows to cover them.  The query then runs on the
// base CSR plus the delta overlay, bit-identical to a from-scratch rebuild
// of the updated edge set.
//
// With -server the query goes to one or more running hkprserver processes
// over HTTP instead of loading a graph locally.  -server takes a
// comma-separated endpoint list: a 5xx response or a connection failure fails the query over
// to the next endpoint immediately, sticking with whichever endpoint last
// answered.  Only when every endpoint is unavailable does the client back off
// with jittered exponential delay — honoring the smallest Retry-After drain
// estimate any endpoint advertised, capped at -retry-max — up to -retries
// passes per seed.  Responses the server degraded under pressure ("stale" or
// "clamped") are called out in the output.
//
// Example:
//
//	hkprquery -graph plc.txt -seed 17 -method tea+ -t 5 -eps 0.5
//	hkprquery -graph plc.txt -seed 17,42,101 -method tea+
//	hkprquery -graph plc.txt -updates delta.txt -seed 17
//	hkprquery -server http://localhost:8080 -seed 17 -retries 6
//	hkprquery -server http://a:8080,http://b:8080 -seed 17
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hkpr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hkprquery:", err)
		os.Exit(1)
	}
}

// parseSeeds splits a comma-separated seed list; every element must be a
// non-negative integer.
func parseSeeds(s string) ([]hkpr.NodeID, error) {
	parts := strings.Split(s, ",")
	seeds := make([]hkpr.NodeID, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("invalid -seed list %q: empty element", s)
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("invalid -seed list %q: %q is not a non-negative node id", s, p)
		}
		seeds = append(seeds, hkpr.NodeID(v))
	}
	return seeds, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hkprquery", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "path to the graph (edge list or binary, by extension)")
		seedList  = fs.String("seed", "0", "seed node id, or a comma-separated list queried as one batch")
		method    = fs.String("method", string(hkpr.MethodTEAPlus), "estimator: tea+ | tea | monte-carlo | hk-relax | cluster-hkpr | exact")
		heat      = fs.Float64("t", 5, "heat constant t")
		epsRel    = fs.Float64("eps", 0.5, "relative error threshold εr")
		delta     = fs.Float64("delta", 0, "normalized-HKPR threshold δ (0 = 1/n)")
		pf        = fs.Float64("pf", 1e-6, "failure probability")
		rngSeed   = fs.Uint64("rng", 1, "random seed")
		topK      = fs.Int("top", 20, "print at most this many cluster members")
		updates   = fs.String("updates", "", "edge-list delta applied before querying: 'u v' or '+ u v' adds an edge, '- u v' (or 'del u v') removes one")

		server    = fs.String("server", "", "query running hkprserver endpoints (comma-separated base URLs; 5xx or connection failures fail over to the next) instead of loading a graph locally")
		retries   = fs.Int("retries", 4, "with -server: retry passes over the endpoint list per seed after every endpoint shed or failed")
		retryBase = fs.Duration("retry-base", 100*time.Millisecond, "with -server: initial backoff delay, doubled (with jitter) per retry")
		retryMax  = fs.Duration("retry-max", 5*time.Second, "with -server: cap on any single backoff delay, including the server's Retry-After hint")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server != "" {
		seeds, err := parseSeeds(*seedList)
		if err != nil {
			return err
		}
		var servers []string
		for _, s := range strings.Split(*server, ",") {
			if s = strings.TrimSpace(s); s != "" {
				servers = append(servers, s)
			}
		}
		if len(servers) == 0 {
			return fmt.Errorf("-server holds no endpoints")
		}
		return runRemote(&remoteConfig{
			servers: servers,
			method:  *method,
			epsRel:  *epsRel,
			topK:    *topK,
			retries: *retries,
			base:    *retryBase,
			max:     *retryMax,
			rngSeed: *rngSeed,
		}, seeds, out)
	}
	if *graphPath == "" {
		return fmt.Errorf("missing -graph path")
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		return err
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: n=%d m=%d avg-degree=%.2f\n", g.N(), g.M(), g.AverageDegree())

	var src hkpr.GraphSource = g
	if *updates != "" {
		batch, err := parseUpdates(*updates, g.N())
		if err != nil {
			return err
		}
		dyn := hkpr.NewDynamic(g, hkpr.DynamicOptions{})
		if _, err := dyn.ApplyUpdates(batch); err != nil {
			return fmt.Errorf("applying %s: %w", *updates, err)
		}
		snap := dyn.Snapshot()
		fmt.Fprintf(out, "updates: +%d nodes +%d edges -%d edges → epoch %d (n=%d m=%d)\n",
			batch.AddNodes, len(batch.AddEdges), len(batch.RemoveEdges), snap.Epoch(), snap.N(), snap.M())
		src = dyn
	}

	d := *delta
	if d == 0 {
		d = 1 / float64(src.Snapshot().N())
	}
	opts := hkpr.Options{T: *heat, EpsRel: *epsRel, Delta: d, FailureProb: *pf, Seed: *rngSeed}
	fmt.Fprintf(out, "method: %s  heat t=%.1f  εr=%.2f  δ=%.2e\n", *method, *heat, *epsRel, d)

	start := time.Now()
	results, err := estimate(src, seeds, hkpr.Method(*method), opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if len(seeds) > 1 {
		fmt.Fprintf(out, "batch: %d seeds in one multi-source pass, total %v (%.1f queries/sec)\n",
			len(seeds), elapsed, float64(len(seeds))/elapsed.Seconds())
	}

	for i, seed := range seeds {
		res := results[i]
		sweep := hkpr.Sweep(src, res.Scores)
		if len(seeds) > 1 {
			fmt.Fprintf(out, "--- seed %d ---\n", seed)
		}
		fmt.Fprintf(out, "query time: %v  (pushes=%d walks=%d)\n",
			elapsed, res.Stats.PushOperations, res.Stats.RandomWalks)
		fmt.Fprintf(out, "cluster: %d nodes, conductance %.4f, volume %d, cut %d\n",
			len(sweep.Cluster), sweep.Conductance, sweep.Volume, sweep.Cut)

		members := append([]hkpr.NodeID(nil), sweep.Cluster...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		if len(members) > *topK {
			members = members[:*topK]
		}
		strs := make([]string, len(members))
		for i, v := range members {
			strs[i] = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(out, "members (first %d): %s\n", len(members), strings.Join(strs, " "))
	}
	return nil
}

// estimate runs the query: a single seed goes through the standalone
// estimator (which supports the baseline methods too); several seeds run as
// one batched multi-source call, available for the core methods.
func estimate(src hkpr.GraphSource, seeds []hkpr.NodeID, method hkpr.Method, opts hkpr.Options) ([]*hkpr.Result, error) {
	if len(seeds) == 1 {
		res, err := hkpr.EstimateHKPR(src, seeds[0], method, opts)
		if err != nil {
			return nil, err
		}
		return []*hkpr.Result{res}, nil
	}
	switch method {
	case hkpr.MethodTEAPlus, hkpr.MethodTEA, hkpr.MethodMonteCarlo:
	default:
		return nil, fmt.Errorf("batched -seed lists support tea+, tea and monte-carlo, got %q", method)
	}
	c, err := hkpr.NewClustererWithMethod(src, opts, method)
	if err != nil {
		return nil, err
	}
	results, errs, err := c.EstimateMany(seeds, hkpr.Options{})
	if err != nil {
		return nil, err
	}
	for i, serr := range errs {
		if serr != nil {
			return nil, fmt.Errorf("seed %d: %w", seeds[i], serr)
		}
	}
	return results, nil
}

func loadGraph(path string) (*hkpr.Graph, error) {
	if strings.HasSuffix(path, ".bin") {
		return hkpr.LoadBinaryFile(path)
	}
	return hkpr.LoadEdgeListFile(path)
}

// parseUpdates reads an edge-list delta file into one UpdateBatch.  A line is
// "u v" or "+ u v" / "add u v" (insert an edge) or "- u v" / "del u v"
// (remove one); '#' starts a comment.  Added edges may reference node IDs at
// or beyond n — AddNodes grows the node range to cover the largest one.
func parseUpdates(path string, n int) (hkpr.UpdateBatch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return hkpr.UpdateBatch{}, err
	}
	var batch hkpr.UpdateBatch
	maxID := hkpr.NodeID(n - 1)
	for lineNo, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		op := "+"
		switch len(fields) {
		case 2:
		case 3:
			op = fields[0]
			fields = fields[1:]
		default:
			return hkpr.UpdateBatch{}, fmt.Errorf("%s:%d: want 'u v' or 'op u v', got %q", path, lineNo+1, line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return hkpr.UpdateBatch{}, fmt.Errorf("%s:%d: non-integer node id in %q", path, lineNo+1, line)
		}
		e := [2]hkpr.NodeID{hkpr.NodeID(u), hkpr.NodeID(v)}
		switch op {
		case "+", "add":
			batch.AddEdges = append(batch.AddEdges, e)
			if e[0] > maxID {
				maxID = e[0]
			}
			if e[1] > maxID {
				maxID = e[1]
			}
		case "-", "del":
			batch.RemoveEdges = append(batch.RemoveEdges, e)
		default:
			return hkpr.UpdateBatch{}, fmt.Errorf("%s:%d: unknown op %q (want +, -, add or del)", path, lineNo+1, op)
		}
	}
	if grow := int(maxID) - (n - 1); grow > 0 {
		batch.AddNodes = grow
	}
	return batch, nil
}
