package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"kifmm"
)

// segments is how many equal parts a run's window is split into. Every
// part after the first starts with a cold set-up in a child process, and
// re-plans and warm Applies alternate inside every part, so each metric's
// samples are spread over the whole run and see the same host: on a shared
// machine whose speed drifts over tens of seconds, samples bunched at one
// end of the run would follow that moment's speed.
const segments = 3

// plansPerApply is how many fresh geometries are planned before each warm
// Apply (re-plans are an order of magnitude cheaper than an Apply).
const plansPerApply = 3

// childTimes is what a set-up child prints as its last line.
type childTimes struct {
	SetupS     float64 `json:"setup_s"`
	ColdApplyS float64 `json:"cold_apply_s"`
}

// samples are the timings one run collects, in seconds.
type samples struct {
	setups, colds, plans, applies []float64
}

// addChild runs one cold set-up child and adds its set-up time and, on the
// library workloads, its cold Apply time.
func (s *samples) addChild(w workload, seed int64, r *report) {
	t, err := childSetup(w, seed)
	r.op(err)
	if err == nil {
		s.setups = append(s.setups, t.SetupS)
		if !w.serve {
			s.colds = append(s.colds, t.ColdApplyS)
		}
	}
}

func runWorkload(w workload, seed int64, window time.Duration) (*report, error) {
	if w.serve {
		return runServe(w, seed, window)
	}
	return runBatch(w, seed, window)
}

// runBatch runs the iterative-solver pattern: New and Plan once, then warm
// Apply calls with fresh densities for the measured window, with re-plans
// of fresh geometries on the warm solver in between.
func runBatch(w workload, seed int64, window time.Duration) (*report, error) {
	r := newReport()
	var s samples
	start := time.Now()
	pts := w.points(seed, streamPoints, 0)
	idx := sample(seed, w.n)
	t0 := time.Now()
	f, err := kifmm.New(w.opt)
	if err != nil {
		return nil, fmt.Errorf("new: %w", err)
	}
	plan, err := f.Plan(pts)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	s.setups = append(s.setups, time.Since(t0).Seconds())

	den0 := w.densities(seed, 0, w.n)
	t0 = time.Now()
	pot0, err := plan.Apply(den0)
	s.colds = append(s.colds, time.Since(t0).Seconds())
	r.op(err)

	var den1, pot1 []float64
	k := 0
	for seg := 0; seg < segments; seg++ {
		if seg > 0 {
			s.addChild(w, seed, r)
		}
		// An iteration starts only if one as long as the last still ends
		// by the segment's end, so a run lasts about its window.
		end := start.Add(window * time.Duration(seg+1) / segments)
		var iter time.Duration
		for first := true; first || time.Now().Add(iter).Before(end); first = false {
			it0 := time.Now()
			// Re-plan cost: fresh geometries on the warm solver. Each plan
			// is dropped and collected before the next timed call, so
			// neither a timing nor the peak resident set depends on when
			// the collector happens to run.
			for j := 0; j < plansPerApply; j++ {
				fp := w.points(seed, streamFresh, len(s.plans))
				runtime.GC()
				t0 := time.Now()
				_, err := f.Plan(fp)
				r.op(err)
				if err == nil {
					s.plans = append(s.plans, time.Since(t0).Seconds())
				}
			}
			runtime.GC()

			k++
			den := w.densities(seed, k, w.n)
			t0 := time.Now()
			pot, err := plan.Apply(den)
			lat := time.Since(t0)
			r.op(err)
			if err != nil {
				continue
			}
			s.applies = append(s.applies, lat.Seconds())
			iter = time.Since(it0)
			if den1 == nil {
				den1, pot1 = den, pot
			} else if err := checkShape(w.kern, w.n, pot); err != nil {
				r.fail(err)
			}
		}
	}

	// The cold and the first warm Apply are checked against the direct sum;
	// every other Apply is checked for shape and finiteness above.
	relErr := 0.0
	for _, c := range []struct{ den, pot []float64 }{{den0, pot0}, {den1, pot1}} {
		if c.pot == nil {
			continue
		}
		e, err := checkAccuracy(w.kern, pts, c.den, c.pot, idx, w.ceiling)
		if err != nil {
			r.fail(err)
		}
		relErr = math.Max(relErr, e)
	}

	r.set("setup_s", median(s.setups))
	r.set("plan_s", median(s.plans))
	r.set("cold_apply_s", median(s.colds))
	r.set("apply_s", median(s.applies))
	r.set("req_per_s", float64(len(s.applies))/sum(s.applies))
	r.set("peak_rss_mb", peakRSSMB())
	r.setExtra("rel_err", "ratio", relErr)
	fmt.Printf("samples setup=%d plan=%d cold_apply=%d apply=%d\n", len(s.setups), len(s.plans), len(s.colds), len(s.applies))
	return r, nil
}

// childSetup measures one cold set-up in a fresh process (the
// process-wide translation cache and lazily built operators would make a
// second set-up in this process warm). The parent waits for the child.
func childSetup(w workload, seed int64) (childTimes, error) {
	var t childTimes
	exe, err := os.Executable()
	if err != nil {
		return t, fmt.Errorf("set-up child: %w", err)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "--setup-child", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return t, fmt.Errorf("set-up child: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &t); err != nil {
		return t, fmt.Errorf("set-up child: %w", err)
	}
	return t, nil
}

// runSetupChild is the body of a set-up child process: one cold set-up and
// one cold Apply (or first evaluation), timed and printed as JSON.
func runSetupChild(w workload, seed int64) int {
	var t childTimes
	var err error
	if w.serve {
		t, err = serveSetupChild(w, seed)
	} else {
		t, err = batchSetupChild(w, seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up child: %v\n", err)
		return 1
	}
	fmt.Println(mustJSON(t))
	return 0
}

func batchSetupChild(w workload, seed int64) (childTimes, error) {
	pts := w.points(seed, streamPoints, 0)
	t0 := time.Now()
	f, err := kifmm.New(w.opt)
	if err != nil {
		return childTimes{}, err
	}
	plan, err := f.Plan(pts)
	if err != nil {
		return childTimes{}, err
	}
	setup := time.Since(t0)
	den := w.densities(seed, 0, w.n)
	t0 = time.Now()
	pot, err := plan.Apply(den)
	cold := time.Since(t0)
	if err != nil {
		return childTimes{}, err
	}
	if err := checkShape(w.kern, w.n, pot); err != nil {
		return childTimes{}, err
	}
	return childTimes{SetupS: setup.Seconds(), ColdApplyS: cold.Seconds()}, nil
}
