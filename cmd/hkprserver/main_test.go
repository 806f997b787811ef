package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hkpr"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, _, err := hkpr.GenerateSBM(4, 30, 8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(g, hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-4, Seed: 1}, hkpr.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.engine.Close() })
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthAndStats(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 120 || stats.Edges <= 0 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.Serving.Workers != 2 || stats.Serving.CacheCapacity <= 0 {
		t.Errorf("serving stats not populated: %+v", stats.Serving)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Serve one query so the counters are non-trivial.
	resp, err := http.Get(ts.URL + "/cluster?seed=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hkpr_serve_requests_total 1",
		"hkpr_serve_executions_total 1",
		"# TYPE hkpr_serve_latency_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestClusterEndpointCaching(t *testing.T) {
	ts := newTestServer(t)
	get := func() clusterResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/cluster?seed=7")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr clusterResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	first, second := get(), get()
	if first.Cached {
		t.Error("first query should not be cached")
	}
	if !second.Cached {
		t.Error("second identical query should be served from cache")
	}
	if first.Size != second.Size || first.Conductance != second.Conductance {
		t.Errorf("cached answer differs: %+v vs %+v", first, second)
	}
}

func TestClusterEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/cluster?seed=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr clusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Seed != 3 || cr.Size == 0 || len(cr.Cluster) != cr.Size {
		t.Errorf("cluster response: %+v", cr)
	}
	if cr.Conductance <= 0 || cr.Conductance > 1 {
		t.Errorf("conductance %v", cr.Conductance)
	}
	if cr.Method != string(hkpr.MethodTEAPlus) {
		t.Errorf("default method %s", cr.Method)
	}
}

func TestClusterEndpointMethodsAndOverrides(t *testing.T) {
	ts := newTestServer(t)
	for _, m := range []string{"tea", "monte-carlo"} {
		resp, err := http.Get(ts.URL + "/cluster?seed=1&method=" + m + "&eps=0.7")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("method %s status %d", m, resp.StatusCode)
		}
	}
}

// TestClusterEndpointStatusMapping covers the error→status mapping: 400 for
// malformed requests, 504 for queries that outlive their deadline, and 503
// for a server that is shutting down (ErrEngineClosed must not surface as a
// 500).
func TestClusterEndpointStatusMapping(t *testing.T) {
	g, _, err := hkpr.GenerateSBM(4, 30, 8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(g, hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-4, Seed: 1},
		hkpr.EngineConfig{Workers: 2, DefaultTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/cluster?seed=1&method=bogus"); got != http.StatusBadRequest {
		t.Errorf("bad method: status %d, want 400", got)
	}
	// Monte-Carlo with a tight εr needs tens of millions of walks and cannot
	// early-terminate, so the 1ms deadline always fires first.
	if got := status("/cluster?seed=1&method=monte-carlo&eps=0.01&nocache=1"); got != http.StatusGatewayTimeout {
		t.Errorf("deadline: status %d, want 504", got)
	}

	if err := srv.engine.Close(); err != nil {
		t.Fatal(err)
	}
	if got := status("/cluster?seed=1"); got != http.StatusServiceUnavailable {
		t.Errorf("closed engine: status %d, want 503", got)
	}
}

func TestClusterEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []string{
		"/cluster",                       // missing seed
		"/cluster?seed=abc",              // non-numeric
		"/cluster?seed=999999",           // out of range
		"/cluster?seed=1&method=bogus",   // unknown method
		"/cluster?seed=1&eps=2",          // bad eps
		"/cluster?seed=1&eps=notanumber", // malformed eps
	}
	for _, path := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestClusterEndpointTopK(t *testing.T) {
	ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/cluster?seed=3&topk=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr clusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Scores) != 5 {
		t.Fatalf("topk=5 rendered %d scores", len(cr.Scores))
	}
	for i := 1; i < len(cr.Scores); i++ {
		a, b := cr.Scores[i-1], cr.Scores[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Node >= b.Node) {
			t.Fatalf("scores not in (score desc, node asc) order: %+v then %+v", a, b)
		}
	}

	// A repeat without topk must hit the cache (topk does not fragment the
	// key) and omit the scores array.
	resp2, err := http.Get(ts.URL + "/cluster?seed=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var cr2 clusterResponse
	if err := json.NewDecoder(resp2.Body).Decode(&cr2); err != nil {
		t.Fatal(err)
	}
	if !cr2.Cached {
		t.Error("repeat query without topk missed the cache: topk fragmented the key")
	}
	if cr2.Scores != nil {
		t.Errorf("scores rendered without topk: %+v", cr2.Scores)
	}

	// Invalid topk is a 400.
	resp3, err := http.Get(ts.URL + "/cluster?seed=3&topk=0")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("topk=0 status %d, want 400", resp3.StatusCode)
	}
}

func TestClusterEndpointSweepK(t *testing.T) {
	ts := newTestServer(t)

	get := func(path string) clusterResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var cr clusterResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}

	cr := get("/cluster?seed=4&sweepk=10")
	if cr.Size == 0 || cr.Size > 10 {
		t.Fatalf("sweepk=10 cluster size %d", cr.Size)
	}
	if cr.Conductance <= 0 || cr.Conductance > 1 {
		t.Fatalf("conductance %v", cr.Conductance)
	}
	// sweepk is a per-request rendering over the shared score vector, so a
	// different k must hit the same cache entry rather than re-executing.
	again := get("/cluster?seed=4&sweepk=5")
	if !again.Cached {
		t.Error("second sweepk request missed the cache: sweepk fragmented the key")
	}
	if again.Size == 0 || again.Size > 5 {
		t.Fatalf("sweepk=5 cluster size %d", again.Size)
	}
	// The full sweep scans every prefix, so its best conductance can only be
	// at least as good as a bounded scan's.
	full := get("/cluster?seed=4")
	if full.Conductance > cr.Conductance {
		t.Fatalf("full sweep conductance %v worse than sweepk=10's %v", full.Conductance, cr.Conductance)
	}

	// Invalid sweepk values are 400s.
	for _, path := range []string{
		"/cluster?seed=4&sweepk=0",
		"/cluster?seed=4&sweepk=-3",
		"/cluster?seed=4&sweepk=lots",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "sweepk must be a positive integer") {
			t.Errorf("%s: body %q", path, body)
		}
	}
}

func TestClusterEndpointTrace(t *testing.T) {
	ts := newTestServer(t)

	get := func(path string) clusterResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var cr clusterResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}

	// method=tea so the walk stage always runs (TEA+ may early-terminate).
	cr := get("/cluster?seed=6&method=tea&trace=1")
	if cr.Trace == nil {
		t.Fatal("trace=1 returned no inline trace")
	}
	if cr.Trace.Seed != 6 || cr.Trace.CacheOutcome != "miss" {
		t.Fatalf("trace: %+v", cr.Trace)
	}
	for _, stage := range []string{"push", "walk", "merge", "sweep"} {
		if _, ok := cr.Trace.StageDuration(stage); !ok {
			t.Fatalf("trace missing stage %q: %s", stage, cr.Trace.StageSummary())
		}
	}
	if cr.Trace.InvariantChecks == 0 {
		t.Fatal("trace carries no invariant checks")
	}

	// A traced repeat is served from cache and traces the lookup.
	hit := get("/cluster?seed=6&method=tea&trace=1")
	if !hit.Cached || hit.Trace == nil || hit.Trace.CacheOutcome != "hit" {
		t.Fatalf("traced repeat: cached=%v trace=%+v", hit.Cached, hit.Trace)
	}

	// Untraced requests omit the field entirely.
	if plain := get("/cluster?seed=6&method=tea"); plain.Trace != nil {
		t.Fatalf("untraced request carries a trace: %+v", plain.Trace)
	}
}

func TestDebugQueriesEndpoint(t *testing.T) {
	g, _, err := hkpr.GenerateSBM(4, 30, 8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(g, hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-4, Seed: 1},
		hkpr.EngineConfig{Workers: 2, TraceBuffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.engine.Close() })
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// Empty ring: still a valid JSON document with an empty array.
	resp, err := http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var dq debugQueriesResponse
	err = json.NewDecoder(resp.Body).Decode(&dq)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dq.Queries == nil || len(dq.Queries) != 0 {
		t.Fatalf("empty ring: %+v", dq.Queries)
	}

	for _, seed := range []string{"2", "9"} {
		resp, err := http.Get(ts.URL + "/cluster?seed=" + seed)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&dq); err != nil {
		t.Fatal(err)
	}
	if len(dq.Queries) != 2 {
		t.Fatalf("%d recorded queries, want 2", len(dq.Queries))
	}
	// Newest first.
	if dq.Queries[0].Seed != 9 || dq.Queries[1].Seed != 2 {
		t.Fatalf("order: %d then %d", dq.Queries[0].Seed, dq.Queries[1].Seed)
	}
	rec := dq.Queries[0]
	if _, ok := rec.StageDuration("push"); !ok {
		t.Fatalf("recorded trace missing push span: %s", rec.StageSummary())
	}
	if rec.TotalNS <= 0 || rec.InvariantChecks == 0 {
		t.Fatalf("record not populated: %+v", rec)
	}
}

func TestStatusForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{hkpr.ErrUnknownMethod, http.StatusBadRequest},
		{hkpr.ErrOverloaded, http.StatusServiceUnavailable},
		{hkpr.ErrEngineClosed, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 0},
		{fmt.Errorf("wrapped: %w", hkpr.ErrInvariantViolation), http.StatusInternalServerError},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got, _ := statusForError(tc.err); got != tc.want {
			t.Errorf("statusForError(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestPprofGated(t *testing.T) {
	g, _, err := hkpr.GenerateSBM(4, 30, 8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(g, hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-4, Seed: 1}, hkpr.EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.engine.Close() })

	status := func(h http.Handler) int {
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(srv.routes()); got != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", got)
	}
	srv.pprof = true
	if got := status(srv.routes()); got != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", got)
	}
}

// TestOverloadRetryAfterHeader: a shed query returns 503 with a Retry-After
// header carrying the engine's drain estimate in whole seconds.
func TestOverloadRetryAfterHeader(t *testing.T) {
	g, _, err := hkpr.GenerateSBM(4, 30, 8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var unstick sync.Once
	t.Cleanup(func() { unstick.Do(func() { close(release) }) })
	srv, err := newServer(g, hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-4, Seed: 1},
		hkpr.EngineConfig{
			Workers:    1,
			QueueDepth: 1,
			ExecGate:   func(*hkpr.ServeRequest) { <-release },
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.engine.Close() })
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// Distinct seeds with nocache so nothing coalesces: the first execution
	// parks in the gate, the next fills the queue, and one of the rest is
	// shed.
	var wg sync.WaitGroup
	shed := make(chan *http.Response, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/cluster?seed=%d&nocache=1", ts.URL, i))
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				select {
				case shed <- resp:
					return // keeper's body is closed below
				default:
				}
			}
			resp.Body.Close()
		}(i)
	}
	select {
	case resp := <-shed:
		ra := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if ra == "" {
			t.Fatal("503 without Retry-After header")
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("Retry-After %q not a positive whole-second count", ra)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nothing was shed")
	}
	unstick.Do(func() { close(release) })
	wg.Wait()
}

// TestTwoServersBitIdentical is the cross-process determinism check: two
// servers, each loading the same edge-list file on its own and run with
// different worker counts and per-query parallelism, must answer the same
// /cluster requests with bit-identical clusters, conductances and top-k
// scores, before and after the same POST /update.  This is what lets N
// hkprserver processes behind `hkprquery -server a,b,c` fail over without
// any reconciliation.
func TestTwoServersBitIdentical(t *testing.T) {
	g, err := hkpr.GeneratePLC(600, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := hkpr.SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	start := func(workers, parallelism int) string {
		lg, err := hkpr.LoadEdgeListFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The same wrapping and estimator options as run() with default flags.
		dyn := hkpr.NewDynamic(lg, hkpr.DynamicOptions{})
		srv, err := newServer(dyn, hkpr.Options{T: 5, EpsRel: 0.5, FailureProb: 1e-6},
			hkpr.EngineConfig{Workers: workers, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.engine.Close() })
		ts := httptest.NewServer(srv.routes())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	servers := []string{start(1, 1), start(2, 4)}

	get := func(base, query string) clusterResponse {
		t.Helper()
		resp, err := http.Get(base + "/cluster?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
		}
		var cr clusterResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	// nocache=1 makes every answer a fresh computation at the current epoch.
	queries := []string{
		"seed=3&topk=20&nocache=1",
		"seed=3&method=tea&topk=20&nocache=1",
		"seed=250&topk=20&nocache=1",
		"seed=250&method=tea&topk=20&nocache=1",
	}
	compare := func(epoch uint64) {
		t.Helper()
		var walks int64
		for _, q := range queries {
			a, b := get(servers[0], q), get(servers[1], q)
			if a.Epoch != epoch || b.Epoch != epoch {
				t.Fatalf("%s: epochs %d and %d, want %d", q, a.Epoch, b.Epoch, epoch)
			}
			if a.Parallelism == b.Parallelism {
				t.Fatalf("%s: both servers ran at parallelism %d; the check needs them to differ", q, a.Parallelism)
			}
			if !slices.Equal(a.Cluster, b.Cluster) {
				t.Fatalf("%s: clusters differ:\n%v\n%v", q, a.Cluster, b.Cluster)
			}
			if math.Float64bits(a.Conductance) != math.Float64bits(b.Conductance) {
				t.Fatalf("%s: conductance %v vs %v", q, a.Conductance, b.Conductance)
			}
			if len(a.Scores) == 0 || len(a.Scores) != len(b.Scores) {
				t.Fatalf("%s: top-k lengths %d and %d", q, len(a.Scores), len(b.Scores))
			}
			for i := range a.Scores {
				if a.Scores[i].Node != b.Scores[i].Node ||
					math.Float64bits(a.Scores[i].Score) != math.Float64bits(b.Scores[i].Score) {
					t.Fatalf("%s: top-k entry %d differs: %+v vs %+v", q, i, a.Scores[i], b.Scores[i])
				}
			}
			walks += a.Walks
		}
		if walks == 0 {
			t.Fatal("no query ran random walks; the check never covered the seeded walk phase")
		}
	}
	compare(0)

	for _, base := range servers {
		resp, err := http.Post(base+"/update", "application/json",
			strings.NewReader(`{"add_nodes":1,"add_edges":[[600,3],[600,250]]}`))
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Epoch uint64 `json:"epoch"`
		}
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("update on %s: status %d, err %v", base, resp.StatusCode, err)
		}
		if res.Epoch != 1 {
			t.Fatalf("update on %s published epoch %d, want 1", base, res.Epoch)
		}
	}
	compare(1)
}
