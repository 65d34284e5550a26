// Command perfbench is the kifmm benchmark: three seeded workloads that
// measure what a user of the library and of fmmserve sees end to end, plus
// a traced run that splits the same work by layer. See README.md for the
// workloads, the metric definitions and the seeds.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload yukawa-ellipsoid-50k --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable report: the environment stamp, every metric by name with
// its unit, and the exact-count fingerprint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 40, "length of the run in seconds, set-up included")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
		child   = flag.Bool("setup-child", false, "internal: run one cold set-up in this fresh process and print its timings")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload <%s> --seed <n> --seconds <n≥1> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	if *child {
		os.Exit(runSetupChild(w, *seed))
	}
	env := stampEnv(*seed, w.name, *trace)
	fmt.Printf("env: %s\n", mustJSON(env))
	window := time.Duration(*seconds) * time.Second
	var r *report
	var err error
	if *trace == 1 {
		r, err = runTraced(w, *seed, window, env)
	} else {
		r, err = runWorkload(w, *seed, window)
	}
	if err != nil {
		// A run that could not be carried out prints no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	r.print(names)
	res := r.result(names)
	fmt.Println(mustJSON(res))
	if !res.Correct {
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit. The two lists below
// mirror BENCHMARK.json; TestMetricListsMatchBenchmarkJSON keeps them in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or of fmmserve sees,
// reported with the trace off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"plan_s", "s"},
	{"cold_apply_s", "s"},
	{"apply_s", "s"},
	{"req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one set per layer. A layer the
// workload does not exercise reports 0 (see README.md).
var perLayer = []metricDef{
	{"kifmm.s2u_s", "s"},
	{"kifmm.u2u_s", "s"},
	{"kifmm.upward_cold_s", "s"},
	{"kifmm.vli_s", "s"},
	{"kifmm.vli_flops", "count"},
	{"kifmm.vli_gflops", "GFLOP/s"},
	{"kifmm.xli_s", "s"},
	{"kifmm.down_s", "s"},
	{"kifmm.wli_s", "s"},
	{"kifmm.d2t_s", "s"},
	{"kifmm.uli_s", "s"},
	{"kifmm.uli_flops", "count"},
	{"kifmm.uli_gflops", "GFLOP/s"},
	{"kifmm.ops_s", "s"},
	{"kifmm.prewarm_s", "s"},
	{"kifmm.layout_s", "s"},
	{"kifmm.tf_cache_hit_ratio", "ratio"},
	{"octree.build_s", "s"},
	{"octree.lists_s", "s"},
	{"octree.leaves", "count"},
	{"octree.depth", "count"},
	{"octree.max_leaf_pts", "count"},
	{"octree.u_pairs", "count"},
	{"octree.v_pairs", "count"},
	{"octree.w_pairs", "count"},
	{"octree.x_pairs", "count"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"sched.idle_frac", "ratio"},
	{"sched.overlap_ratio", "ratio"},
	{"service.queue_wait_ms", "ms"},
	{"service.plan_build_ms", "ms"},
	{"service.apply_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.plan_cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"service.req_bytes", "bytes"},
	{"session.step_ms", "ms"},
	{"session.apply_ms", "ms"},
	{"session.migrants_per_step", "count"},
	{"session.replan_ratio", "ratio"},
	{"shard.comm_s", "s"},
	{"shard.bytes_per_apply", "bytes"},
	{"shard.msgs_per_apply", "count"},
	{"shard.reduce_octants_per_apply", "count"},
	{"runtime.alloc_mb_per_apply", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"machine.hadamard_gflops", "GFLOP/s"},
}

// report collects one run's metrics, its operation counts and the
// exact-count fingerprint.
type report struct {
	values    map[string]float64
	units     map[string]string
	extra     []string // metric names printed in the report but not in the result line
	attempted int
	failed    int
	failures  []string
	counts    map[string]int64 // deterministic counts: the fingerprint
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}, counts: map[string]int64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setExtra records a metric that is printed by name but is not one of the
// result line's metrics (it applies to one workload only, or is 0 at head).
func (r *report) setExtra(name, unit string, v float64) {
	r.values[name] = v
	r.units[name] = unit
	r.extra = append(r.extra, name)
}

// count records a deterministic count in the fingerprint; it is also
// reported as the metric of the same name when one exists.
func (r *report) count(name string, v int64) {
	r.counts[name] = v
	r.values[name] = float64(v)
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation without a new attempt (a check on an
// operation already counted).
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) print(names []metricDef) {
	for _, m := range names {
		fmt.Printf("metric %-32s %16.6g %s\n", m.name, r.values[m.name], m.unit)
	}
	for _, n := range r.extra {
		fmt.Printf("metric %-32s %16.6g %s\n", n, r.values[n], r.units[n])
	}
	fmt.Printf("metric %-32s %16.6g %s\n", "error_rate", r.errorRate(), "ratio")
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("fingerprint %-32s %d\n", k, r.counts[k])
	}
	fmt.Printf("operations attempted=%d failed=%d error_rate=%g\n", r.attempted, r.failed, r.errorRate())
	for _, f := range r.failures {
		fmt.Printf("failure: %s\n", f)
	}
}

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result(names []metricDef) result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range names {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN; a metric that could not be formed fails the run.
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
