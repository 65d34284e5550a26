package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"kifmm"
	"kifmm/internal/diag"
	"kifmm/internal/geom"
	ikifmm "kifmm/internal/kifmm"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
	"kifmm/internal/shard"
)

// Library defaults the traced run rebuilds layer by layer (kifmm.New's
// defaults for the options the workloads leave unset).
const (
	defaultQ        = 50
	defaultMaxDepth = 24
	defaultTol      = 1e-9
)

// runTraced is the traced run: it rebuilds the workload's set-up layer by
// layer, runs the engine phases one call each in barrier order, and then
// repeats the workload's own operations for the window with every other
// operation inside a span, so the trace's own cost is measured too.
func runTraced(w workload, seed int64, window time.Duration, env envStamp) (*report, error) {
	r := newReport()
	for _, m := range perLayer {
		r.set(m.name, 0)
	}
	tr := newTracer()
	lp, err := probeLayers(w, seed, tr, r)
	if err != nil {
		return nil, err
	}
	if w.serve {
		err = serveTraced(w, seed, window, tr, r)
	} else {
		err = batchTraced(w, seed, window, tr, r, lp)
	}
	if err != nil {
		return nil, err
	}
	r.set("machine.hadamard_gflops", hadamardRate(w))
	if err := tr.finish(env); err != nil {
		return nil, err
	}
	if err := checkFingerprint(env, r.counts); err != nil {
		r.op(err)
	}
	return r, nil
}

// layerSetup is what probeLayers built, reused by the window.
type layerSetup struct {
	ops  *ikifmm.Operators
	tree *octree.Tree
	pts  []kifmm.Point
}

func geomPoints(pts []kifmm.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point(p)
	}
	return out
}

// vLevels returns the levels whose translation spectra a plan prewarms (as
// kifmm.FMM.Plan does).
func vLevels(tree *octree.Tree, ops *ikifmm.Operators) []int {
	if ops.Homogeneous() {
		return []int{0}
	}
	seen := map[int]bool{}
	for i := range tree.Nodes {
		if len(tree.Nodes[i].V) > 0 {
			seen[tree.Nodes[i].Key.Level()] = true
		}
	}
	var levels []int
	for l := range seen {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	return levels
}

// enginePhase is one phase method of the barrier sequence.
type enginePhase struct {
	name string
	run  func(*ikifmm.Engine)
}

var enginePhases = []enginePhase{
	{"s2u", (*ikifmm.Engine).S2U},
	{"u2u", (*ikifmm.Engine).U2U},
	{"vli", (*ikifmm.Engine).VLI},
	{"xli", (*ikifmm.Engine).XLI},
	{"down", (*ikifmm.Engine).Downward},
	{"wli", (*ikifmm.Engine).WLI},
	{"d2t", (*ikifmm.Engine).D2T},
	{"uli", (*ikifmm.Engine).ULI},
}

// probeLayers times the set-up layers and the engine phases of the
// workload's own tree, and records the octree, flop and scheduler counts.
func probeLayers(w workload, seed int64, tr *tracer, r *report) (*layerSetup, error) {
	q := w.opt.PointsPerBox
	if q == 0 {
		q = defaultQ
	}
	pts := w.points(seed, streamPoints, 0)
	gpts := geomPoints(pts)
	workers := w.opt.Workers

	// Set-up, one span per layer call (the calls kifmm.New and Plan make).
	var (
		ops    *ikifmm.Operators
		tree   *octree.Tree
		layout *ikifmm.Layout
	)
	root, end := tr.begin("kifmm.setup", 0, 0)
	r.set("kifmm.ops_s", tr.timed("kifmm.ops", root, func() { ops = ikifmm.NewOperators(w.kern, w.opt.Order, defaultTol) }))
	r.set("octree.build_s", tr.timed("octree.build", root, func() { tree = octree.Build(gpts, q, defaultMaxDepth) }))
	r.set("octree.lists_s", tr.timed("octree.lists", root, func() { tree.BuildLists(nil) }))
	r.set("kifmm.prewarm_s", tr.timed("kifmm.prewarm", root, func() { ops.FFT().Prewarm(vLevels(tree, ops), workers) }))
	r.set("kifmm.layout_s", tr.timed("kifmm.layout", root, func() { layout = ikifmm.NewLayout(tree, ops, false) }))
	end()

	// Re-plan of a fresh geometry: the prewarm now hits the process-wide
	// translation cache except for levels the first tree lacked.
	fresh := octree.Build(geomPoints(w.points(seed, streamFresh, 0)), q, defaultMaxDepth)
	fresh.BuildLists(nil)
	tf0 := ikifmm.SharedTranslations.Stats()
	tr.timed("kifmm.prewarm_replan", 0, func() { ops.FFT().Prewarm(vLevels(fresh, ops), workers) })
	tf1 := ikifmm.SharedTranslations.Stats()
	if !w.serve {
		// The serve workload reports the ratio over its plan-cache misses.
		r.set("kifmm.tf_cache_hit_ratio", ratio(tf1.Hits-tf0.Hits, tf1.Misses-tf0.Misses))
	}

	var u, v, wl, x int64
	maxLeaf := 0
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		u += int64(len(n.U))
		v += int64(len(n.V))
		wl += int64(len(n.W))
		x += int64(len(n.X))
		if n.IsLeaf && n.NPoints() > maxLeaf {
			maxLeaf = n.NPoints()
		}
	}
	r.count("octree.leaves", int64(len(tree.Leaves)))
	r.count("octree.depth", int64(tree.MaxLevel()))
	r.count("octree.max_leaf_pts", int64(maxLeaf))
	r.count("octree.u_pairs", u)
	r.count("octree.v_pairs", v)
	r.count("octree.w_pairs", wl)
	r.count("octree.x_pairs", x)

	// Engine phases in barrier order: a cold pass on a new engine, then a
	// warm pass whose times are reported. Flop counts must repeat exactly.
	eng := ikifmm.NewEngineLayout(ops, tree, layout)
	eng.UseFFTM2L = true
	eng.Workers = workers
	prof := diag.NewProfile()
	eng.Prof = prof
	var times [2]map[string]float64
	var flops [2]map[string]int64
	var den []float64
	for pass := 0; pass < 2; pass++ {
		times[pass], flops[pass] = map[string]float64{}, map[string]int64{}
		den = w.densities(seed, pass, w.n)
		if pass > 0 {
			eng.Reset()
		}
		eng.SetPointDensities(den)
		pid, end := tr.begin("kifmm.barrier_apply", 0, 0)
		for _, ph := range enginePhases {
			f0 := prof.TotalFlops()
			times[pass][ph.name] = tr.timed("kifmm."+ph.name, pid, func() { ph.run(eng) })
			flops[pass][ph.name] = prof.TotalFlops() - f0
		}
		end()
	}
	r.op(nil)
	_, err := checkAccuracy(w.kern, pts, den, eng.PointPotentials(), sample(seed, w.n), w.ceiling)
	if err != nil {
		r.fail(fmt.Errorf("barrier engine: %w", err))
	}
	barrierSum := 0.0
	for _, ph := range enginePhases {
		r.set("kifmm."+ph.name+"_s", times[1][ph.name])
		barrierSum += times[1][ph.name]
		if flops[0][ph.name] != flops[1][ph.name] {
			r.fail(fmt.Errorf("kifmm.%s flops differ between applies: %d vs %d", ph.name, flops[0][ph.name], flops[1][ph.name]))
		}
	}
	r.set("kifmm.upward_cold_s", times[0]["s2u"]+times[0]["u2u"])
	r.count("kifmm.vli_flops", flops[1]["vli"])
	r.count("kifmm.uli_flops", flops[1]["uli"])
	r.set("kifmm.vli_gflops", float64(flops[1]["vli"])/times[1]["vli"]/1e9)
	r.set("kifmm.uli_gflops", float64(flops[1]["uli"])/times[1]["uli"]/1e9)
	fmt.Printf("phases warm: ")
	for _, ph := range enginePhases {
		fmt.Printf("%s=%.4gs ", ph.name, times[1][ph.name])
	}
	fmt.Printf("sum=%.4gs\n", barrierSum)

	// The task graph runs only where the workload's Apply runs it: a
	// single-engine plan with more than one worker.
	if !w.serve && w.opt.Shards == 0 && workers > 1 {
		var walls, idle, steals []float64
		var tasks int64 = -1
		for k := 0; k < 3; k++ {
			eng.Reset()
			eng.SetPointDensities(den)
			var st sched.Stats
			var err error
			wall := tr.timed("sched.dag_apply", 0, func() { st, err = eng.EvaluateDAG(nil) })
			r.op(err)
			if err != nil {
				continue
			}
			if tasks >= 0 && st.Tasks != tasks {
				r.fail(fmt.Errorf("sched.tasks differ between applies: %d vs %d", tasks, st.Tasks))
			}
			tasks = st.Tasks
			walls = append(walls, wall)
			idle = append(idle, st.Idle.Seconds()/(float64(workers)*st.Wall.Seconds()))
			steals = append(steals, float64(st.Steals))
		}
		r.count("sched.tasks", tasks)
		r.set("sched.steals", median(steals))
		r.set("sched.idle_frac", median(idle))
		r.set("sched.overlap_ratio", barrierSum/median(walls))
	}
	return &layerSetup{ops: ops, tree: tree, pts: pts}, nil
}

// applier is the workload's Apply entry point in the traced window.
type applier func(den []float64) ([]float64, error)

// batchTraced repeats the workload's warm Apply for the window, every other
// call inside a span, and reports the runtime, shard and trace-overhead
// metrics.
func batchTraced(w workload, seed int64, window time.Duration, tr *tracer, r *report, lp *layerSetup) error {
	var apply applier
	var prof *diag.Profile
	if w.opt.Shards > 0 {
		// The sharded Plan.Apply path, on the operators and tree built above
		// (kifmm.New would rebuild the operators).
		backend, err := shard.BackendByName(w.opt.ShardComm)
		if err != nil {
			return err
		}
		var sp *shard.Plan
		tr.timed("shard.plan", 0, func() {
			sp, err = shard.BuildPlan(lp.tree, shard.Config{
				Ranks: w.opt.Shards, Backend: backend, Ops: lp.ops, UseFFTM2L: true,
				Workers: w.opt.Workers, LoadBalance: true,
			})
		})
		if err != nil {
			return err
		}
		prof = diag.NewProfile()
		sp.SetProfile(prof)
		apply = sp.Apply
	} else {
		f, err := kifmm.New(w.opt)
		if err != nil {
			return err
		}
		plan, err := f.Plan(lp.pts)
		if err != nil {
			return err
		}
		apply = plan.Apply
	}

	// One warm-up Apply so engine allocation and lazy operators stay out
	// of the window.
	pot, err := apply(w.densities(seed, 0, w.n))
	if err == nil {
		err = checkShape(w.kern, w.n, pot)
	}
	r.op(err)

	var traced, plain []float64
	var traffic []shardTraffic
	before := readMem()
	start := time.Now()
	for k := 1; k <= 2 || time.Since(start) < window; k++ {
		den := w.densities(seed, k, w.n)
		t0 := shardTotals()
		var d float64
		if k%2 == 0 {
			_, end := tr.begin("kifmm.apply", 0, int64(k))
			d, pot, err = timedApply(apply, den)
			end()
			traced = append(traced, d)
		} else {
			d, pot, err = timedApply(apply, den)
			plain = append(plain, d)
		}
		if err == nil {
			err = checkShape(w.kern, w.n, pot)
		}
		r.op(err)
		if w.opt.Shards > 0 {
			traffic = append(traffic, shardTotals().sub(t0))
		}
	}
	after := readMem()
	applies := len(traced) + len(plain)
	r.set("runtime.alloc_mb_per_apply", float64(after.TotalAlloc-before.TotalAlloc)/float64(applies)/(1<<20))
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("trace.overhead_frac", (median(traced)-median(plain))/median(plain))
	fmt.Printf("samples traced=%d untraced=%d\n", len(traced), len(plain))

	if w.opt.Shards > 0 {
		for i, t := range traffic[1:] {
			if t != traffic[0] {
				r.fail(fmt.Errorf("shard traffic of apply %d differs: %+v vs %+v", i+1, t, traffic[0]))
			}
		}
		r.set("shard.comm_s", prof.Time(diag.ShardCommPhase(w.opt.ShardComm)).Seconds()/float64(applies+1))
		r.count("shard.bytes_per_apply", traffic[0].bytes)
		r.count("shard.msgs_per_apply", traffic[0].msgs)
		r.count("shard.reduce_octants_per_apply", traffic[0].octants)
	}
	return nil
}

func timedApply(apply applier, den []float64) (float64, []float64, error) {
	t0 := time.Now()
	pot, err := apply(den)
	return time.Since(t0).Seconds(), pot, err
}

// shardTraffic sums the process-wide sharded traffic counters over ranks.
type shardTraffic struct{ bytes, msgs, octants int64 }

func shardTotals() shardTraffic {
	var t shardTraffic
	for _, row := range kifmm.ShardTrafficStats() {
		t.bytes += row.BytesSent
		t.msgs += row.MsgsSent
		t.octants += row.ReduceOctants
	}
	return t
}

func (a shardTraffic) sub(b shardTraffic) shardTraffic {
	return shardTraffic{a.bytes - b.bytes, a.msgs - b.msgs, a.octants - b.octants}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// hadamardRate is the in-cache rate of the V-list's complex Hadamard
// kernel for the workload's kernel and order: one source spectrum, one
// translation spectrum and one accumulator, small enough to stay in cache.
// It is the ceiling kifmm.vli_gflops is read against.
func hadamardRate(w workload) float64 {
	n := 2 * w.opt.Order
	hl := n * n * (n/2 + 1)
	sd, td := w.kern.SrcDim(), w.kern.TrgDim()
	rng := rand.New(rand.NewSource(1))
	fill := func(k int) []float64 {
		s := make([]float64, k)
		for i := range s {
			s[i] = rng.Float64() * 1e-3
		}
		return s
	}
	acc, tf, src := fill(td*2*hl), fill(td*sd*2*hl), fill(sd*2*hl)
	flops := float64(8 * td * sd * hl)
	var rates []float64
	for round := 0; round < 5; round++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			for k := 0; k < 16; k++ {
				ikifmm.Hadamard(acc, tf, src, sd, td, hl)
			}
			calls += 16
		}
		rates = append(rates, flops*float64(calls)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// checkFingerprint asserts that the exact counts repeat across traced runs
// of the same program binary and seed: the first run stores them under
// .bench_out, later runs compare.
func checkFingerprint(env envStamp, counts map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	digest := hex.EncodeToString(h.Sum(nil))[:16]
	path := filepath.Join(".bench_out", fmt.Sprintf("fingerprint-%s-%d-%s.json", env.Workload, env.Seed, digest))
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(".bench_out", 0o755); err != nil {
			return err
		}
		fmt.Printf("fingerprint: stored in %s\n", path)
		return os.WriteFile(path, []byte(mustJSON(counts)), 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]int64
	if err := json.Unmarshal(b, &prev); err != nil {
		return fmt.Errorf("fingerprint %s: %w", path, err)
	}
	for k, v := range counts {
		if pv, ok := prev[k]; !ok || pv != v {
			return fmt.Errorf("fingerprint %s: %d here, %d in the earlier run with the same seed", k, v, pv)
		}
	}
	fmt.Printf("fingerprint: matches %s\n", path)
	return nil
}
