package main

import (
	"fmt"
	"time"
)

// Service phases of the server's profile (internal/service/server.go).
const (
	phaseQueueWait   = "QueueWait"
	phasePlanBuild   = "PlanBuild"
	phaseApply       = "Apply"
	phaseSessionStep = "SessionStep"
)

var servicePhases = [...]string{phaseQueueWait, phasePlanBuild, phaseApply, phaseSessionStep}

// serveTraced runs the serve workload's window with every other request
// traced and reports the service, session, runtime and trace-overhead
// metrics from the server's profile, /metrics and the replies.
func serveTraced(w workload, seed int64, window time.Duration, tr *tracer, r *report) error {
	idx := sample(seed, w.n)
	e, _, err := startServe(w, seed, tr)
	if err != nil {
		return err
	}
	defer e.close()
	var s samples
	for k := 0; k < serveSlices*servePlansPerSlice; k++ {
		e.coldEvaluation(seed, k, r, idx, &s)
	}
	clients := e.newClients(seed)

	prof := e.srv.Profile()
	var t0 [len(servicePhases)]time.Duration
	for i, ph := range servicePhases {
		t0[i] = prof.Time(ph)
	}
	tfHits0, tfMiss0 := prof.Counter("tf_cache_hits"), prof.Counter("tf_cache_misses")
	m0, err := e.metricsScrape()
	if err != nil {
		return err
	}
	mem0 := readMem()
	e.prepare(clients, time.Now().Add(window))
	e.runClients(clients, time.Now().Add(window))
	logs := clientLogs(clients)
	mem1 := readMem()
	m1, err := e.metricsScrape()
	if err != nil {
		return err
	}
	var dt [len(servicePhases)]float64 // ms
	for i, ph := range servicePhases {
		dt[i] = float64(prof.Time(ph)-t0[i]) / 1e6
	}
	e.tally(r, logs, idx)

	var n [numKinds]int
	var lat, stepMS float64
	var bytes int64
	var migrants, leading, replans int
	var hits [2][]float64
	for _, l := range logs {
		for k := range l.lat {
			n[k] += len(l.lat[k])
			lat += 1000 * sum(l.lat[k])
		}
		bytes += l.bytes
		stepMS += sum(l.stepMS)
		replans += l.replans
		for i, m := range l.migrants {
			if i < stepsFingerprint {
				migrants += m
				leading++
			}
		}
		for t := range hits {
			hits[t] = append(hits[t], l.hitByTrace[t]...)
		}
	}
	reqs := float64(n[kindHit] + n[kindMiss] + n[kindStep])
	if leading != stepsFingerprint*serveClients {
		r.fail(fmt.Errorf("only %d session steps in the window, need %d for the fingerprint", leading, stepsFingerprint*serveClients))
	}
	r.set("service.queue_wait_ms", dt[0]/reqs)
	r.set("service.plan_build_ms", dt[1]/float64(n[kindMiss]))
	r.set("service.apply_ms", dt[2]/reqs)
	r.set("service.self_ms", (lat-dt[0]-dt[1]-dt[2]-dt[3])/reqs)
	r.set("service.plan_cache_hit_ratio", ratio(
		int64(m1["fmmserve_plan_cache_hits_total"]-m0["fmmserve_plan_cache_hits_total"]),
		int64(m1["fmmserve_plan_cache_misses_total"]-m0["fmmserve_plan_cache_misses_total"])))
	r.set("service.rejected", m1["fmmserve_tasks_rejected_total"]-m0["fmmserve_tasks_rejected_total"])
	r.set("service.req_bytes", float64(bytes)/reqs)
	r.set("session.step_ms", dt[3]/float64(n[kindStep]))
	r.set("session.apply_ms", (stepMS-dt[3])/float64(n[kindStep]))
	r.count("session.migrants_leading_steps", int64(migrants))
	r.set("session.migrants_per_step", float64(migrants)/float64(leading))
	r.set("session.replan_ratio", float64(replans)/float64(n[kindStep]))
	r.set("kifmm.tf_cache_hit_ratio", ratio(prof.Counter("tf_cache_hits")-tfHits0, prof.Counter("tf_cache_misses")-tfMiss0))
	r.set("runtime.alloc_mb_per_apply", float64(mem1.TotalAlloc-mem0.TotalAlloc)/reqs/(1<<20))
	r.set("runtime.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
	r.set("runtime.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	r.set("trace.overhead_frac", (median(hits[1])-median(hits[0]))/median(hits[0]))
	fmt.Printf("samples requests=%.0f (hit=%d miss=%d step=%d) traced hits=%d untraced hits=%d\n",
		reqs, n[kindHit], n[kindMiss], n[kindStep], len(hits[1]), len(hits[0]))
	return nil
}
