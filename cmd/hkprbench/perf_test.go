package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseParallelismList(t *testing.T) {
	got, err := parseParallelismList("1, 4,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 8 {
		t.Fatalf("parseParallelismList: %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "x", "-2"} {
		if _, err := parseParallelismList(bad); err == nil {
			t.Errorf("%q should be rejected", bad)
		}
	}
}

// TestPerfWritesBenchJSON runs the -perf mode at a tiny scale and checks
// every estimator gets a parseable BENCH_<name>.json with the fields the
// perf-trajectory tooling relies on.
func TestPerfWritesBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	dir := t.TempDir()
	err := run([]string{
		"-perf", "-parallel", "2", "-perf-nodes", "1000", "-bench-dir", dir, "-v=false",
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	slugs := make([]string, 0, len(perfMethods)+1)
	for _, m := range perfMethods {
		slugs = append(slugs, m.slug)
	}
	slugs = append(slugs, "serve")
	for _, slug := range slugs {
		path := filepath.Join(dir, "BENCH_"+slug+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing bench JSON: %v", err)
		}
		var rep perfReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if rep.Name != slug || len(rep.Points) != 1 {
			t.Fatalf("%s: unexpected report %+v", path, rep)
		}
		p := rep.Points[0]
		if p.Parallelism != 2 || p.NsPerOp <= 0 || p.Iterations <= 0 {
			t.Fatalf("%s: unexpected point %+v", path, p)
		}
		if slug != "serve" {
			if p.WalkPhaseShare <= 0 || p.WalkPhaseShare > 1 {
				t.Fatalf("%s: walk share out of range: %v", path, p.WalkPhaseShare)
			}
			if p.RandomWalks == 0 {
				t.Fatalf("%s: walk stage did not run; the perf point monitors nothing", path)
			}
		}
	}

	// The update entry measures query throughput under a live background
	// writer; its point is always serial and must record the writer's work.
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_update.json"))
	if err != nil {
		t.Fatalf("missing update bench JSON: %v", err)
	}
	var rep perfReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_update.json: bad JSON: %v", err)
	}
	if rep.Name != "update" || len(rep.Points) != 1 {
		t.Fatalf("BENCH_update.json: unexpected report %+v", rep)
	}
	p := rep.Points[0]
	if p.Parallelism != 1 || p.NsPerOp <= 0 || p.QueriesPerSec <= 0 {
		t.Fatalf("BENCH_update.json: unexpected point %+v", p)
	}
	if p.UpdatesApplied == 0 {
		t.Fatal("BENCH_update.json: background writer applied no update batches; the point measured a static graph")
	}

	// The soak entry runs the chaos harness and must record the overload
	// trajectory: offered requests, a shed rate within the harness's own
	// bound, and a pressure tier (the 2x+ overload must leave nominal).
	raw, err = os.ReadFile(filepath.Join(dir, "BENCH_soak.json"))
	if err != nil {
		t.Fatalf("missing soak bench JSON: %v", err)
	}
	var soak perfReport
	if err := json.Unmarshal(raw, &soak); err != nil {
		t.Fatalf("BENCH_soak.json: bad JSON: %v", err)
	}
	if soak.Name != "soak" || len(soak.Points) != 1 {
		t.Fatalf("BENCH_soak.json: unexpected report %+v", soak)
	}
	sp := soak.Points[0]
	if sp.Requests == 0 || sp.ShedRate < 0 || sp.ShedRate > 0.95 {
		t.Fatalf("BENCH_soak.json: unexpected point %+v", sp)
	}
	if sp.MaxPressure == "" || sp.MaxPressure == "nominal" {
		t.Fatalf("BENCH_soak.json: controller never left nominal: %+v", sp)
	}
	if sp.P99Ns <= 0 {
		t.Fatalf("BENCH_soak.json: no saturated latency recorded: %+v", sp)
	}
}

// TestCheckPerfBaseline pins the CI regression gate: a fresh report passes
// against a matching baseline, fails on a >2x allocs_per_op blow-up above
// the absolute floor, and tolerates missing baselines and parallelism points.
func TestCheckPerfBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs int64) {
		rep := perfReport{Name: name, Points: []perfPoint{{Parallelism: 1, AllocsPerOp: allocs}}}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("tea", 100)

	fresh := func(allocs int64) perfReport {
		return perfReport{Name: "tea", Points: []perfPoint{{Parallelism: 1, AllocsPerOp: allocs}}}
	}
	if err := checkPerfBaseline(dir, fresh(150)); err != nil {
		t.Fatalf("within-budget point flagged: %v", err)
	}
	if err := checkPerfBaseline(dir, fresh(300)); err == nil {
		t.Fatal("3x allocs regression not flagged")
	}
	// Points and files absent from the baseline are not failures.
	if err := checkPerfBaseline(dir, perfReport{Name: "tea", Points: []perfPoint{{Parallelism: 8, AllocsPerOp: 1e6}}}); err != nil {
		t.Fatalf("unknown parallelism point flagged: %v", err)
	}
	if err := checkPerfBaseline(dir, perfReport{Name: "nonexistent"}); err != nil {
		t.Fatalf("missing baseline file flagged: %v", err)
	}
	// Near-zero baselines tolerate small absolute jitter even past 2x.
	write("serve", 10)
	if err := checkPerfBaseline(dir, perfReport{Name: "serve", Points: []perfPoint{{Parallelism: 1, AllocsPerOp: 40}}}); err != nil {
		t.Fatalf("sub-floor jitter flagged: %v", err)
	}
}

// TestCheckPerfBaselineBytes pins the bytes_per_op half of the gate: a >2x
// heap-bytes blow-up above the absolute floor fails, within-budget growth
// and sub-floor jitter pass, and a zero-bytes baseline (older JSON without
// the field) never trips.
func TestCheckPerfBaselineBytes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs, bytesPerOp int64) {
		rep := perfReport{Name: name, Points: []perfPoint{{Parallelism: 1, AllocsPerOp: allocs, BytesPerOp: bytesPerOp}}}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func(bytesPerOp int64) perfReport {
		return perfReport{Name: "tea", Points: []perfPoint{{Parallelism: 1, AllocsPerOp: 100, BytesPerOp: bytesPerOp}}}
	}
	write("tea", 100, 1<<20)
	if err := checkPerfBaseline(dir, fresh(3<<19)); err != nil {
		t.Fatalf("1.5x bytes growth flagged: %v", err)
	}
	if err := checkPerfBaseline(dir, fresh(3<<20)); err == nil {
		t.Fatal("3x bytes_per_op regression not flagged")
	}
	// Small absolute growth below the floor passes even past 2x.
	write("tea", 100, 1<<10)
	if err := checkPerfBaseline(dir, fresh(16<<10)); err != nil {
		t.Fatalf("sub-floor bytes jitter flagged: %v", err)
	}
	// Legacy baseline without bytes_per_op never trips the bytes gate.
	write("tea", 100, 0)
	if err := checkPerfBaseline(dir, fresh(1<<30)); err != nil {
		t.Fatalf("zero-bytes baseline flagged: %v", err)
	}
}

// TestCheckPerfBaselineSoak pins the soak half of the gate: shed rate is
// bounded by absolute slack, the degraded machinery must not go inert, and
// the saturated p99 is bounded by a loose factor.
func TestCheckPerfBaselineSoak(t *testing.T) {
	dir := t.TempDir()
	base := perfReport{Name: "soak", Points: []perfPoint{{
		ShedRate: 0.40, DegradedRate: 0.15, P99Ns: 4e6,
	}}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_soak.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := func(shed, degraded float64, p99 int64) perfReport {
		return perfReport{Name: "soak", Points: []perfPoint{{
			ShedRate: shed, DegradedRate: degraded, P99Ns: p99,
		}}}
	}
	if err := checkPerfBaseline(dir, fresh(0.55, 0.10, 8e6)); err != nil {
		t.Fatalf("in-bounds soak flagged: %v", err)
	}
	if err := checkPerfBaseline(dir, fresh(0.70, 0.10, 4e6)); err == nil {
		t.Fatal("shed-rate jump past slack not flagged")
	}
	if err := checkPerfBaseline(dir, fresh(0.40, 0, 4e6)); err == nil {
		t.Fatal("inert degraded machinery not flagged")
	}
	if err := checkPerfBaseline(dir, fresh(0.40, 0.15, 30e6)); err == nil {
		t.Fatal("p99 collapse past factor not flagged")
	}
	// The rate gates are soak-specific: other entries with zero soak fields
	// never trip them.
	other := perfReport{Name: "tea", Points: []perfPoint{{Parallelism: 1, AllocsPerOp: 10}}}
	rawTea, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_tea.json"), rawTea, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkPerfBaseline(dir, other); err != nil {
		t.Fatalf("non-soak entry tripped soak gates: %v", err)
	}
}
