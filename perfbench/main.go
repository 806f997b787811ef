// Command perfbench is the repository's end-to-end benchmark: it starts the
// real hkprserver on loopback with default flags, drives one workload as a
// closed loop of one client per CPU, checks every answer, and prints the
// end-to-end metrics (--trace 0) or, from an in-process replay of the same
// inputs, the per-layer metrics (--trace 1).  The last line of its output is
// one JSON object: {"correct","attempted","failed","metrics"}.
//
// Run it from the repository root through run.sh, which builds the benchmark,
// hkprserver and graphgen from source first:
//
//	bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"hkpr"
)

// setupRuns is how many times a run launches the server to measure set-up;
// setup_s is the median.
const setupRuns = 5

// The graph: the LiveJournal stand-in at full scale, an LFR graph with
// ground-truth communities, written as a SNAP-style text edge list.
var graphArgs = []string{"-type", "dataset", "-name", "livejournal", "-scale", "full"}

func main() {
	// Stop any running server when the benchmark is interrupted, so no
	// hkprserver outlives it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopLive()
		os.Exit(1)
	}()
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "nominal length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics from an in-process replay")
	bin := fs.String("bin", ".bench_build", "directory holding the built hkprserver and graphgen")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := bench(*workload, *seed, *seconds, *traceFlag == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ensureGraph generates the edge list once per checkout, outside every timed
// window.
func ensureGraph(bin string) (string, error) {
	path := filepath.Join(bin, "graphs", "livejournal-full.txt")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	out, err := exec.Command(filepath.Join(bin, "graphgen"), append(graphArgs, "-out", tmp)...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("graphgen: %v: %s", err, out)
	}
	return path, os.Rename(tmp, path)
}

func bench(workload string, seed uint64, seconds int, traced bool, bin string) (*result, error) {
	began := time.Now()
	step := func(name string) { fmt.Printf("elapsed: %s at %.1fs\n", name, time.Since(began).Seconds()) }
	graphPath, err := ensureGraph(bin)
	if err != nil {
		return nil, err
	}
	g, err := hkpr.LoadEdgeListFile(graphPath)
	if err != nil {
		return nil, err
	}
	digest, err := fileDigest(graphPath)
	if err != nil {
		return nil, err
	}
	p, err := BuildPlan(g, workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%v nproc=%d clients=%d go=%s\n",
		workload, seed, seconds, traced, runtime.NumCPU(), clients, runtime.Version())
	fmt.Printf("graph: n=%d m=%d edge-list sha256=%s\n", g.N(), g.M(), digest)
	fmt.Printf("plan: digest=%s warm-up=%d window-reads=%d window-updates=%d probe-updates=%d\n",
		p.Digest(), len(p.WarmUp), p.Reads(), len(p.Updates())-len(p.Probe), len(p.Probe))

	step("plan built")
	e2e, err := runServer(filepath.Join(bin, "hkprserver"), graphPath, filepath.Join(bin, "logs"), p)
	if err != nil {
		return nil, err
	}
	step("server run")
	c, err := checkRun(g, p, e2e.run)
	if err != nil {
		return nil, err
	}
	step("replies checked")
	m, counts := endToEnd(p, e2e, c)
	attempted := p.Reads() + len(e2e.run.Updates)
	succeeded := c.ReadOK + c.UpdatesOK
	res := &result{Correct: c.failedCount == 0, Attempted: attempted, Failed: attempted - succeeded, Metrics: m}
	for _, f := range c.Failures {
		fmt.Println("check failed:", f)
	}

	if traced {
		printMetrics("end-to-end", m)
		rp, err := tracedReplay(graphPath, p)
		if err != nil {
			return nil, err
		}
		step("traced replay")
		for _, f := range rp.failures {
			fmt.Println("trace check failed:", f)
		}
		res.Correct = res.Correct && len(rp.failures) == 0
		var tc map[string]string
		res.Metrics, tc = perLayer(p, rp, m, c, e2e.rssMB)
		for k, v := range tc {
			counts["trace."+k] = v
		}
	}
	printMetrics("metric", res.Metrics)
	counts["plan_digest"] = p.Digest()
	if msgs, err := compareRepeat(bin, p, counts); err != nil {
		return nil, err
	} else if len(msgs) > 0 {
		for _, msg := range msgs {
			fmt.Println("repeat check failed:", msg)
		}
		res.Correct = false
	}
	return res, nil
}

// serverRun is the untraced run's measurements.
type serverRun struct {
	setups []float64
	run    *e2eRun
	rssMB  float64
}

// runServer measures set-up setupRuns times, then drives the plan on the
// last server it started.
func runServer(bin, graphPath, logDir string, p *Plan) (*serverRun, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, "hkprserver.log")
	sr := &serverRun{}
	began := time.Now()
	var s *server
	for i := range setupRuns {
		var d time.Duration
		var err error
		s, d, err = startServer(bin, graphPath, logPath)
		if err != nil {
			return nil, err
		}
		sr.setups = append(sr.setups, d.Seconds())
		if i < setupRuns-1 {
			s.stop()
		}
	}
	defer s.stop()
	workers, err := s.workers()
	if err != nil {
		return nil, err
	}
	fmt.Printf("server: GOMAXPROCS=%d (default -workers) setup runs=%d\n", workers, setupRuns)
	fmt.Printf("elapsed: set-up runs took %.1fs\n", time.Since(began).Seconds())
	sr.run = driveServer(s, p)
	var err2 error
	sr.rssMB, err2 = s.peakRSSMB()
	return sr, err2
}

// endToEnd computes the end-to-end metrics and the counts that must repeat
// exactly between runs of the same code on the same seed.
func endToEnd(p *Plan, sr *serverRun, c *checked) (map[string]metric, map[string]string) {
	run := sr.run
	lat := make([]time.Duration, len(run.Reads))
	for i, r := range run.Reads {
		lat[i] = r.Latency
	}
	rl := sortedMS(lat)
	tail := tailPercentile[p.Workload]
	upd := make([]time.Duration, len(run.Updates))
	for i, r := range run.Updates {
		upd[i] = r.Latency
	}
	ul := sortedMS(upd)
	utail := updateTailPercentile[p.Workload]
	var cond, pushes, walks []float64
	for _, cr := range c.Reads {
		if cr != nil {
			cond = append(cond, cr.Conductance)
			pushes = append(pushes, float64(cr.Pushes))
			walks = append(walks, float64(cr.Walks))
		}
	}
	reads, updates := len(run.Reads), len(run.Updates)
	m := map[string]metric{
		"setup_s":                {median(sr.setups), "s"},
		"latency_p50_ms":         {percentile(rl, 50), "ms"},
		"latency_tail_ms":        {percentile(rl, tail), "ms"},
		"throughput_qps":         {float64(c.ReadOK) / run.Window.Seconds(), "1/s"},
		"success_rate":           {float64(c.ReadOK+c.UpdatesOK) / float64(reads+updates), "ratio"},
		"undegraded_rate":        {float64(c.Undegraded) / float64(reads), "ratio"},
		"conductance_mean":       {mean(cond), "ratio"},
		"update_latency_p50_ms":  {percentile(ul, 50), "ms"},
		"update_latency_tail_ms": {percentile(ul, utail), "ms"},
	}
	fmt.Printf("server: peak RSS (VmHWM) %.1f MB\n", sr.rssMB)
	fmt.Printf("phase window reads: attempted=%d succeeded=%d failed=%d hits=%d tail=p%v samples=%d beyond=%d highest-supported=p%v\n",
		reads, c.ReadOK, reads-c.ReadOK, c.Hits, tail, len(rl), samplesBeyond(len(rl), tail), highestSupported(len(rl), tailCandidates))
	fmt.Printf("phase updates: attempted=%d succeeded=%d failed=%d tail=p%v samples=%d beyond=%d highest-supported=p%v\n",
		updates, c.UpdatesOK, updates-c.UpdatesOK, utail, len(ul), samplesBeyond(len(ul), utail), highestSupported(len(ul), tailCandidates))
	fmt.Printf("phase set-up: runs=%d seconds=%v\n", len(sr.setups), sr.setups)
	fmt.Printf("phase warm-up (untimed): attempted=%d succeeded=%d failed=%d\n",
		len(run.WarmUp), c.WarmUpOK, len(run.WarmUp)-c.WarmUpOK)
	counts := map[string]string{
		"reads_ok":         fmt.Sprint(c.ReadOK),
		"hits":             fmt.Sprint(c.Hits),
		"updates_ok":       fmt.Sprint(c.UpdatesOK),
		"conductance_mean": exact(mean(cond)),
		"push_ops_mean":    exact(mean(pushes)),
		"walks_mean":       exact(mean(walks)),
	}
	return m, counts
}

// exact formats a float so two runs agree on the string only when they agree
// on every bit.
func exact(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }

// perLayer computes the per-layer metrics from the traced replay and the
// counts among them that must repeat exactly.
func perLayer(p *Plan, rp *replay, e2e map[string]metric, c *checked, rssMB float64) (map[string]metric, map[string]string) {
	var do, qwait, tea, push, walk, sweep, overhead []float64
	var pushOps, walks, support []float64
	for _, m := range rp.misses {
		do = append(do, ms(m.do))
		qwait = append(qwait, ms(m.queue))
	}
	for _, m := range rp.sampled {
		if m.res == nil {
			continue
		}
		tea = append(tea, ms(m.teaPlus))
		// The push and walk phases as TEA+'s own stage timers report them,
		// on the pooled workspaces the server uses.  Most queries here end
		// after the push (its residues already meet the error bound), so the
		// walk median is over the queries that walked.
		push = append(push, ms(m.res.Stats.PushTime))
		if m.res.Stats.RandomWalks > 0 {
			walk = append(walk, ms(m.res.Stats.WalkTime))
		}
		sweep = append(sweep, ms(m.swp))
		overhead = append(overhead, ms(m.do-m.teaPlus-m.swp))
		pushOps = append(pushOps, float64(m.res.Stats.PushOperations))
		walks = append(walks, float64(m.res.Stats.RandomWalks))
		support = append(support, float64(m.res.Scores.Len()))
	}
	var apply, invalidate, invalidated []float64
	for _, u := range rp.updates {
		apply = append(apply, ms(u.graph))
		invalidate = append(invalidate, ms(u.engine-u.graph))
		invalidated = append(invalidated, float64(u.invalidated))
	}
	hits := make([]float64, len(rp.hits))
	for i, d := range rp.hits {
		hits[i] = ms(d)
	}
	hitRate := float64(rp.winHits.Load()) / float64(rp.winReads)
	// The layers on the path of the read at the end-to-end median: a hit when
	// most window reads hit, an execution otherwise.
	latP50 := e2e["latency_p50_ms"].Value
	var pathMS, serveMS float64
	if hitRate >= 0.5 {
		serveMS = median(hits)
		pathMS = serveMS
	} else {
		serveMS = median(do)
		pathMS = median(tea) + median(sweep) + median(overhead)
	}
	m := map[string]metric{
		"graph.load_s":                 {median(rp.loads), "s"},
		"graph.apply_ms_p50":           {median(apply), "ms"},
		"graph.compactions":            {float64(rp.compaction), "count"},
		"core.push_ms_p50":             {median(push), "ms"},
		"core.push_ms_p90":             {percentile(sortedCopy(push), 90), "ms"},
		"core.walk_ms_p50":             {median(walk), "ms"},
		"core.push_ops_per_query":      {mean(pushOps), "count"},
		"core.walks_per_query":         {mean(walks), "count"},
		"core.support_mean":            {mean(support), "count"},
		"cluster.sweep_ms_p50":         {median(sweep), "ms"},
		"cluster.sweep_ms_p90":         {percentile(sortedCopy(sweep), 90), "ms"},
		"serve.miss_ms_p50":            {median(do), "ms"},
		"serve.hit_ms_p50":             {median(hits), "ms"},
		"serve.overhead_ms_p50":        {median(overhead), "ms"},
		"serve.queue_wait_ms_p90":      {percentile(sortedCopy(qwait), 90), "ms"},
		"serve.hit_rate":               {hitRate, "ratio"},
		"serve.window_executions":      {float64(rp.winExecs), "count"},
		"serve.invalidate_ms_p50":      {median(invalidate), "ms"},
		"serve.invalidated_per_update": {mean(invalidated), "count"},
		"http.overhead_ms_p50":         {latP50 - serveMS, "ms"},
		"http.response_bytes_mean":     {c.bodyBytesMean, "bytes"},
		"unattributed_share":           {1 - pathMS/latP50, "ratio"},
		"process.peak_rss_mb":          {rssMB, "MB"},
	}
	fmt.Printf("trace: executions timed=%d module-timed=%d walked=%d hits timed=%d updates timed=%d exact-checked=%d\n",
		len(rp.misses), len(rp.sampled), len(walk), len(rp.hits), len(rp.updates), rp.exact)
	counts := map[string]string{
		"hit_rate":           exact(hitRate),
		"window_executions":  fmt.Sprint(rp.winExecs),
		"push_ops_per_query": exact(mean(pushOps)),
		"walks_per_query":    exact(mean(walks)),
		"support_mean":       exact(mean(support)),
		"batches":            fmt.Sprint(len(rp.updates)),
	}
	return m, counts
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printMetrics prints one line per metric, by name.
func printMetrics(prefix string, m map[string]metric) {
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Printf("%s: %s = %v %s\n", prefix, name, m[name].Value, m[name].Unit)
	}
}
