package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"kifmm"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
)

// workload is one named input set. The program under test receives only
// the points, densities and requests generated from it and a seed.
type workload struct {
	name    string
	serve   bool // fmmserve over loopback instead of the library API
	opt     kifmm.Options
	kern    kernel.Kernel // the same kernel, for the direct-sum check
	dist    geom.Distribution
	n       int
	ceiling float64 // largest accepted relative L2 error against the direct sum
}

// The accuracy ceilings are the ones the repository's own tests assert for
// the kernel and order: Yukawa order 6 (TestYukawaEvaluateMatchesDirect)
// 5e-5, Laplace order 4 behind fmmserve (TestPlanEvaluateRoundTrip) 1e-3,
// Stokes order 4 (TestEvaluateStokes) 5e-3.
var workloads = []workload{
	{
		name:    "yukawa-ellipsoid-50k",
		opt:     kifmm.Options{Kernel: kifmm.Yukawa, YukawaLambda: 5, Order: 6, PointsPerBox: 200, Workers: 2},
		kern:    kernel.Yukawa{Lambda: 5},
		dist:    geom.Ellipsoid,
		n:       50_000,
		ceiling: 5e-5,
	},
	{
		name:    "serve-laplace-8k",
		serve:   true,
		opt:     kifmm.Options{Kernel: kifmm.Laplace, Order: 4, Workers: 1},
		kern:    kernel.Laplace{},
		dist:    geom.Uniform,
		n:       8_000,
		ceiling: 1e-3,
	},
	{
		name:    "stokes-ellipsoid-30k-r2",
		opt:     kifmm.Options{Kernel: kifmm.Stokes, Order: 4, Workers: 2, Shards: 2, ShardComm: "hypercube"},
		kern:    kernel.Stokes{},
		dist:    geom.Ellipsoid,
		n:       30_000,
		ceiling: 5e-3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, "|")
}

// Input streams: each kind of generated input draws from its own seed
// derived from the run seed, so adding draws to one stream never shifts
// another.
const (
	streamPoints   = 1
	streamFresh    = 2 // fresh geometries for re-planning
	streamDensity  = 3
	streamSample   = 4
	streamRequests = 5 // serve: request mix per client
	streamSessions = 6 // serve: session deltas per client
	sampleTargets  = 512
)

func subSeed(seed int64, stream, k int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(k)
}

// points generates the k-th geometry of a stream.
func (w workload) points(seed int64, stream, k int) []kifmm.Point {
	g := geom.Generate(w.dist, w.n, subSeed(seed, stream, k))
	out := make([]kifmm.Point, len(g))
	for i, p := range g {
		out[i] = kifmm.Point(p)
	}
	return out
}

// densities generates the k-th density vector for n points.
func (w workload) densities(seed int64, k, n int) []float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, streamDensity, k)))
	d := make([]float64, n*w.kern.SrcDim())
	for i := range d {
		d[i] = rng.Float64() - 0.5
	}
	return d
}

// sample picks the targets whose potentials are checked against the direct
// sum.
func sample(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, streamSample, 0)))
	idx := make([]int, sampleTargets)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// checkShape verifies that a potential vector has one entry per point and
// component and that every entry is finite.
func checkShape(k kernel.Kernel, n int, pot []float64) error {
	if want := n * k.TrgDim(); len(pot) != want {
		return fmt.Errorf("%d potentials, want %d", len(pot), want)
	}
	for i, v := range pot {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("potential %d is %v", i, v)
		}
	}
	return nil
}

// checkAccuracy is the correctness gate: it checks the shape of pot and
// compares it at the sampled targets with the O(m·N) direct sum over every
// source. It returns the relative L2 error over the sampled components and
// an error when the shape is wrong or the error exceeds ceiling.
func checkAccuracy(k kernel.Kernel, pts []kifmm.Point, den, pot []float64, idx []int, ceiling float64) (float64, error) {
	if err := checkShape(k, len(pts), pot); err != nil {
		return math.Inf(1), err
	}
	srcs := make([]geom.Point, len(pts))
	for i, p := range pts {
		srcs[i] = geom.Point(p)
	}
	trgs := make([]geom.Point, len(idx))
	for i, j := range idx {
		trgs[i] = srcs[j]
	}
	want := kernel.Direct(k, trgs, srcs, den)
	td := k.TrgDim()
	var num, dn float64
	for i, j := range idx {
		for c := 0; c < td; c++ {
			d := pot[j*td+c] - want[i*td+c]
			num += d * d
			dn += want[i*td+c] * want[i*td+c]
		}
	}
	e := math.Sqrt(num / dn)
	if !(e <= ceiling) {
		return e, fmt.Errorf("relative error %.3g above the ceiling %.0e", e, ceiling)
	}
	return e, nil
}
