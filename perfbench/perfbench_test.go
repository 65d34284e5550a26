package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"kifmm"
)

// TestGateTripsOnPerturbedPotentials feeds the correctness gate a correct
// potential vector, then perturbed, non-finite and short ones: only the
// first may pass.
func TestGateTripsOnPerturbedPotentials(t *testing.T) {
	w, _ := workloadByName("yukawa-ellipsoid-50k")
	w.n = 3000
	pts := w.points(1, streamPoints, 0)
	den := w.densities(1, 0, w.n)
	f, err := kifmm.New(w.opt)
	if err != nil {
		t.Fatal(err)
	}
	pot, err := f.Evaluate(pts, den)
	if err != nil {
		t.Fatal(err)
	}
	idx := sample(1, w.n)
	if e, err := checkAccuracy(w.kern, pts, den, pot, idx, w.ceiling); err != nil {
		t.Fatalf("gate rejects the solver's own output (rel err %g): %v", e, err)
	}

	rng := rand.New(rand.NewSource(2))
	perturbed := append([]float64(nil), pot...)
	for i := range perturbed {
		perturbed[i] *= 1 + 1e-4*rng.NormFloat64()
	}
	if e, err := checkAccuracy(w.kern, pts, den, perturbed, idx, w.ceiling); err == nil {
		t.Fatalf("gate passes potentials perturbed by 1e-4 (rel err %g, ceiling %g)", e, w.ceiling)
	}

	nan := append([]float64(nil), pot...)
	nan[len(nan)/2] = math.NaN()
	if _, err := checkAccuracy(w.kern, pts, den, nan, idx, w.ceiling); err == nil {
		t.Fatal("gate passes a NaN potential")
	}
	if _, err := checkAccuracy(w.kern, pts, den, pot[:len(pot)-1], idx, w.ceiling); err == nil {
		t.Fatal("gate passes a short potential vector")
	}
}

// TestFingerprintRepeats builds the serve workload's layers twice from one
// seed; every exact count must repeat.
func TestFingerprintRepeats(t *testing.T) {
	w, _ := workloadByName("serve-laplace-8k")
	var runs [2]*report
	for i := range runs {
		runs[i] = newReport()
		if _, err := probeLayers(w, 3, nil, runs[i]); err != nil {
			t.Fatal(err)
		}
		if runs[i].failed != 0 {
			t.Fatalf("run %d: %v", i, runs[i].failures)
		}
	}
	if len(runs[0].counts) == 0 {
		t.Fatal("no counts recorded")
	}
	for k, v := range runs[0].counts {
		if runs[1].counts[k] != v {
			t.Errorf("%s: %d then %d", k, v, runs[1].counts[k])
		}
	}
}

// TestTracerConcurrent records spans from several goroutines at once, as the
// serve workload's clients and handlers do; run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id, end := tr.begin("parent", 0, int64(g))
				tr.timed("child", id, func() {})
				end()
			}
		}()
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, s := range tr.spans {
		if seen[s.ID] {
			t.Fatalf("span id %d recorded twice", s.ID)
		}
		seen[s.ID] = true
	}
	if len(tr.spans) != 800 {
		t.Fatalf("%d spans, want 800", len(tr.spans))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// root: 100 ns minus the covered [10,50) and [90,100).
	if s := got["root"].Self * 1e9; math.Abs(s-50) > 1e-6 {
		t.Errorf("root self = %g ns, want 50", s)
	}
	if a := got["a"]; a.Count != 2 || math.Abs(a.Self*1e9-50) > 1e-6 {
		t.Errorf("a = %+v, want 2 spans with 50 ns self", a)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists of main.go and
// BENCHMARK.json at the repository root in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", c.name, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in the code", c.name, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %d: %q is not defined in the code", i, w.Name)
		}
	}
}
