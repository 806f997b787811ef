package main

import (
	"reflect"
	"testing"

	"hkpr"
	"hkpr/internal/dataset"
	"hkpr/internal/graph"
)

// testGraph is the benchmark's graph family at a size tests can afford.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := dataset.Load("livejournal", dataset.Scale("small"), "")
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	g := testGraph(t)
	for _, w := range workloadNames {
		a, err := BuildPlan(g, w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := BuildPlan(g, w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !reflect.DeepEqual(a, b) || a.Digest() != b.Digest() {
			t.Errorf("%s: two plans from seed 7 differ", w)
		}
		c, err := BuildPlan(g, w, 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if reflect.DeepEqual(a.Window, c.Window) || a.Digest() == c.Digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	g := testGraph(t)
	warm, err := BuildPlan(g, warmHits, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[graph.NodeID]bool{}
	for _, v := range warm.WarmUp {
		hot[v] = true
	}
	for _, v := range warm.Window[0].Reads {
		if !hot[v] {
			t.Fatalf("warm-hits reads seed %d outside its warmed hot set", v)
		}
	}

	mix, err := BuildPlan(g, updateMix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for i, r := range mix.Window {
		if r.Update == nil {
			t.Fatalf("update-mix round %d has no update", i)
		}
		ops += r.Update.Ops()
		round := map[graph.NodeID]bool{}
		for _, v := range r.Reads {
			if round[v] {
				t.Fatalf("update-mix round %d reads seed %d twice", i, v)
			}
			round[v] = true
		}
	}
	if want := 3 * graph.DefaultCompactThreshold; ops < want {
		t.Errorf("update-mix applies %d overlay operations, want at least %d for three compactions", ops, want)
	}
}

// Every generated batch must apply cleanly, in order, to a Dynamic over the
// same graph, and no batch may touch an edge of a hot seed.
func TestBatchesAreValidAgainstTheMirror(t *testing.T) {
	g := testGraph(t)
	for _, w := range workloadNames {
		p, err := BuildPlan(g, w, 11, 2)
		if err != nil {
			t.Fatal(err)
		}
		protected := map[graph.NodeID]bool{}
		for _, v := range p.WarmUp {
			protected[v] = true
		}
		dyn := hkpr.NewDynamic(g, hkpr.DynamicOptions{CompactThreshold: -1})
		for i, b := range p.Updates() {
			if b.Ops() == 0 {
				t.Fatalf("%s: batch %d is empty", w, i)
			}
			for _, e := range append(append([][2]graph.NodeID{}, b.Add...), b.Remove...) {
				if protected[e[0]] || protected[e[1]] {
					t.Fatalf("%s: batch %d touches hot seed edge %v", w, i, e)
				}
			}
			if _, err := dyn.ApplyUpdates(graph.UpdateBatch{AddEdges: b.Add, RemoveEdges: b.Remove}); err != nil {
				t.Fatalf("%s: batch %d rejected: %v", w, i, err)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99},
	} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
		if got := samplesBeyond(len(vs), c.p); got != c.beyond {
			t.Errorf("samples beyond p%v = %d, want %d", c.p, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestSupported(c.n, tailCandidates); got != c.want {
			t.Errorf("highest percentile supported by %d samples = %v, want %v", c.n, got, c.want)
		}
	}
}

// The fixed tail percentiles must keep at least minBeyond samples beyond them
// at the run length BENCHMARK.json sets.
func TestFixedTailsHaveTenSamplesBeyond(t *testing.T) {
	g := testGraph(t)
	const seconds = 20
	for _, w := range workloadNames {
		p, err := BuildPlan(g, w, 1, seconds)
		if err != nil {
			t.Fatal(err)
		}
		if n, tail := p.Reads(), tailPercentile[w]; samplesBeyond(n, tail) < minBeyond {
			t.Errorf("%s: p%v of %d reads has %d samples beyond", w, tail, n, samplesBeyond(n, tail))
		}
		if n, tail := len(p.Updates()), updateTailPercentile[w]; samplesBeyond(n, tail) < minBeyond {
			t.Errorf("%s: update p%v of %d updates has %d samples beyond", w, tail, n, samplesBeyond(n, tail))
		}
	}
}
