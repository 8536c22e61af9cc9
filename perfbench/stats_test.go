package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25}, [3]float64{0.1875, 3.375, 6.5625}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
		{[]float64{0.91, 0.95, 0.89, 0.97, 0.93, 1.02, 0.9, 0.94, 0.96, 0.92}, [3]float64{0.9075, 0.935, 0.9625}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
		if m := median(c.data); !near(m, c.want[1]) {
			t.Errorf("median(%v) = %v, want %v", c.data, m, c.want[1])
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileAndTail(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.9}, {100, 0.9}, {50, 0.8}, {40, 0.75}, {12, 0.5}} {
		if got := tailQuantile(c.n, 0.9, 10); !near(got, c.want) {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"ms", "lower", 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	if v := judge(base, scale(1.02), lower); v.status != "same" || v.wins != 0 {
		t.Errorf("2%% slower: %+v", v)
	}
	if v := judge(base, scale(1.2), lower); v.status != "regression" || v.wins != 0 {
		t.Errorf("20%% slower: %+v", v)
	}
	if v := judge(base, scale(0.8), lower); v.status != "improvement" || v.wins != 10 {
		t.Errorf("20%% faster: %+v", v)
	}
	higher := metricDef{"1/s", "higher", 0.1}
	if v := judge(base, scale(0.8), higher); v.status != "regression" || !near(v.change, 0.2) {
		t.Errorf("20%% less throughput: %+v", v)
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if v := judge(noisy, noisy, lower); v.status != "unresolved" {
		t.Errorf("wide spread: %+v", v)
	}
	// Beyond the bound and fully separated: a verdict despite the spread.
	far := make([]float64, len(noisy))
	for i, v := range noisy {
		far[i] = v + 200
	}
	if v := judge(noisy, far, lower); v.status != "regression" {
		t.Errorf("separated regression: %+v", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "router", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "serve", Start: 1, End: 4},
		{ID: 3, Parent: 1, Layer: "serve", Start: 3, End: 6},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "serve", Start: 9, End: 12}, // runs past the parent
		{ID: 5, Parent: 2, Layer: "engine", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 4, 2: 2, 3: 3, 4: 3, 5: 1} {
		if !near(self[id], want) {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	if !near(layers["router"], 4) || !near(layers["serve"], 8) || !near(layers["engine"], 1) {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestLinkByKeyAndContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Key: "f-1", Start: 0, End: 10},
		{ID: 2, Layer: "cluster", Key: "f-1", Start: 1, End: 9},
		{ID: 3, Layer: "serve", Key: "f-1", Start: 2, End: 5},
		{ID: 4, Layer: "serve", Key: "f-2", Start: 2, End: 5},
		{ID: 5, Layer: "client", Key: "f-1", Start: 11, End: 12},
		{ID: 6, Layer: "cluster", Key: "f-1", Start: 11.1, End: 11.9},
	}
	link(spans)
	for i, want := range []int64{0, 1, 2, 0, 0, 5} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", spans[i].ID, spans[i].Parent, want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's metric
// lists in step with the catalogue this program reports and judges by.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(gatedEndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, catalogue gates %d", len(doc.EndToEnd), len(gatedEndToEnd))
	}
	for i, m := range doc.EndToEnd {
		def, ok := endToEndDefs[m.Name]
		if m.Name != gatedEndToEnd[i] || !ok || def.unit != m.Unit || def.better != m.Better || def.bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %q %+v", i, m, gatedEndToEnd[i], def)
		}
	}
	if len(doc.PerLayer) != len(gatedPerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, catalogue gates %d", len(doc.PerLayer), len(gatedPerLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != gatedPerLayer[i] {
			t.Errorf("per_layer[%d] = %q, want %q", i, m.Name, gatedPerLayer[i])
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, program has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
}
