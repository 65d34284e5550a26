package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"kifmm"
	"kifmm/internal/service"
)

// The serve workload: an in-process fmmserve over loopback with two
// closed-loop clients (each waits for its reply, no think time).
const (
	serveClients   = 2
	servePoolPlans = 4 // resident plans the eval-hit requests address
	// Every segment's client window is cut into serveSlices slices, each
	// opened by servePlansPerSlice fresh plans, each evaluated once: the
	// plan and cold-evaluate samples.
	serveSlices        = 6
	servePlansPerSlice = 3
	serveDenRing       = 4 // distinct density vectors per resident plan
	serveMigrate       = 0.01
	// serveMaxRate bounds the requests one client can complete per second;
	// before each segment of the window, each client's bodies are encoded
	// for this many requests per second of it (more are encoded on demand).
	serveMaxRate = 30
	// stepsFingerprint is how many leading steps of each client's session
	// enter session.migrants_per_step, so the count repeats exactly.
	stepsFingerprint = 4
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindStep
	numKinds
)

var kindName = [numKinds]string{"eval_hit", "eval_miss", "step"}

// serveEnv is a running server, its resident plans and one session per
// client.
type serveEnv struct {
	w        workload
	opts     service.SolverOptions
	srv      *service.Server
	ts       *httptest.Server
	client   *http.Client
	tr       *tracer
	pool     []servedPlan
	sessions []servedSession
}

type servedPlan struct {
	id  string
	pts []kifmm.Point
}

type servedSession struct {
	id  string
	pts []kifmm.Point
}

func wireOptions(o kifmm.Options) service.SolverOptions {
	return service.SolverOptions{Kernel: string(o.Kernel), Order: o.Order, Workers: o.Workers}
}

func wirePoints(pts []kifmm.Point) [][3]float64 {
	out := make([][3]float64, len(pts))
	for i, p := range pts {
		out[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return out
}

// startServe is the serve workload's set-up: server construction, the
// resident plans and the sessions. Bodies are encoded before the clock
// starts.
func startServe(w workload, seed int64, tr *tracer) (*serveEnv, time.Duration, error) {
	opts := wireOptions(w.opt)
	var planBodies, sessBodies [][]byte
	var planPts, sessPts [][]kifmm.Point
	for p := 0; p < servePoolPlans; p++ {
		pts := w.points(seed, streamPoints, p)
		planPts = append(planPts, pts)
		planBodies = append(planBodies, mustMarshal(service.PlanRequest{Points: wirePoints(pts), Options: opts}))
	}
	for c := 0; c < serveClients; c++ {
		pts := w.points(seed, streamPoints, servePoolPlans+c)
		sessPts = append(sessPts, pts)
		sessBodies = append(sessBodies, mustMarshal(service.SessionRequest{Points: wirePoints(pts), Options: opts}))
	}

	t0 := time.Now()
	srv := service.New(service.Config{Workers: 2})
	e := &serveEnv{w: w, opts: opts, srv: srv, tr: tr}
	e.ts = httptest.NewServer(e.handler())
	e.client = e.ts.Client()
	for p, body := range planBodies {
		var pr service.PlanResponse
		if _, err := e.post("/v1/plan", body, &pr, 0, false); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("plan %d: %w", p, err)
		}
		e.pool = append(e.pool, servedPlan{id: pr.PlanID, pts: planPts[p]})
	}
	for c, body := range sessBodies {
		var sr service.SessionResponse
		if _, err := e.post("/v1/session", body, &sr, 0, false); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("session %d: %w", c, err)
		}
		e.sessions = append(e.sessions, servedSession{id: sr.SessionID, pts: sessPts[c]})
	}
	return e, time.Since(t0), nil
}

// handler wraps the server so a traced run records a server-side span for
// each traced request, parented to the client's span.
func (e *serveEnv) handler() http.Handler {
	if e.tr == nil {
		return e.srv
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		if err != nil {
			e.srv.ServeHTTP(rw, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		_, end := e.tr.begin("service.handler", parent, req)
		e.srv.ServeHTTP(rw, r)
		end()
	})
}

func (e *serveEnv) close() {
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // the process exits next; a slow drain only delays it
}

// post sends one pre-encoded request and returns the latency from send to
// the last byte of the reply; decoding the reply is not timed. A non-2xx
// status is an error.
func (e *serveEnv) post(path string, body []byte, out any, reqID int64, traced bool) (float64, error) {
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	tr := e.tr
	if !traced {
		tr = nil
	}
	sid, end := tr.begin("serve.request", 0, reqID)
	if tr != nil {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sid, 10))
		req.Header.Set("X-Bench-Req", strconv.FormatInt(reqID, 10))
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		end()
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0).Seconds()
	end()
	if err != nil {
		return lat, err
	}
	if resp.StatusCode/100 != 2 {
		return lat, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return lat, fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return lat, nil
}

// metricsScrape reads the counters of /metrics.
func (e *serveEnv) metricsScrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// serveRequest is one pre-encoded request of a client's schedule.
type serveRequest struct {
	kind reqKind
	path string
	body []byte
	// What the reply is checked against: the points and densities the
	// potentials belong to. Hits share their resident plan's; of the
	// misses and steps only the first keeps them. Every reply has one
	// potential per point (no request adds or removes points).
	pts []kifmm.Point
	den []float64
}

// serveClient generates one client's deterministic request schedule.
type serveClient struct {
	e       *serveEnv
	seed    int64
	c       int
	rng     *rand.Rand
	sessRng *rand.Rand
	sessPts []kifmm.Point // the session's points after every scheduled step
	hitBody [][]byte      // pool plan × density ring
	hitDen  [][]float64
	fresh   int
	step    int
	queue   []serveRequest // encoded requests not yet sent
	sent    int
	log     *clientLog
}

func newServeClient(e *serveEnv, seed int64, c int) *serveClient {
	sc := &serveClient{
		e:       e,
		seed:    seed,
		c:       c,
		rng:     rand.New(rand.NewSource(subSeed(seed, streamRequests, c))),
		sessRng: rand.New(rand.NewSource(subSeed(seed, streamSessions, c))),
		sessPts: append([]kifmm.Point(nil), e.sessions[c].pts...),
	}
	for k := 0; k < serveDenRing; k++ {
		den := e.w.densities(seed, 1000*(c+1)+k, e.w.n)
		sc.hitDen = append(sc.hitDen, den)
	}
	for _, p := range e.pool {
		for k := 0; k < serveDenRing; k++ {
			sc.hitBody = append(sc.hitBody, mustMarshal(service.EvaluateRequest{PlanID: p.id, Densities: sc.hitDen[k]}))
		}
	}
	return sc
}

// next builds the client's next request: 60% evaluations of a resident
// plan, 20% evaluations with the points of a fresh geometry, 20% session
// steps that move 1% of the points, with densities.
func (sc *serveClient) next() serveRequest {
	w := sc.e.w
	u := sc.rng.Float64()
	switch {
	case u < 0.6:
		k := sc.rng.Intn(len(sc.hitBody))
		p := sc.e.pool[k/serveDenRing]
		return serveRequest{kind: kindHit, path: "/v1/evaluate", body: sc.hitBody[k], pts: p.pts, den: sc.hitDen[k%serveDenRing]}
	case u < 0.8:
		sc.fresh++
		g := 100_000*(sc.c+1) + sc.fresh
		pts := w.points(sc.seed, streamFresh, g)
		den := w.densities(sc.seed, g, w.n)
		body := mustMarshal(service.EvaluateRequest{Points: wirePoints(pts), Options: sc.e.opts, Densities: den})
		rq := serveRequest{kind: kindMiss, path: "/v1/evaluate", body: body}
		if sc.fresh == 1 {
			rq.pts, rq.den = pts, den
		}
		return rq
	default:
		sc.step++
		nm := int(serveMigrate * float64(w.n))
		moves := make([]service.WireMove, nm)
		for i := range moves {
			id := sc.sessRng.Intn(w.n)
			to := [3]float64{sc.sessRng.Float64(), sc.sessRng.Float64(), sc.sessRng.Float64()}
			moves[i] = service.WireMove{ID: id, To: to}
			sc.sessPts[id] = kifmm.Point{X: to[0], Y: to[1], Z: to[2]}
		}
		den := w.densities(sc.seed, 200_000*(sc.c+1)+sc.step, w.n)
		body := mustMarshal(service.SessionStepRequest{Move: moves, Densities: den})
		rq := serveRequest{kind: kindStep, path: "/v1/session/" + sc.e.sessions[sc.c].id + "/step", body: body}
		if sc.step == 1 {
			rq.pts, rq.den = append([]kifmm.Point(nil), sc.sessPts...), den
		}
		return rq
	}
}

// servePotentials is the part of an /v1/evaluate or step reply the
// benchmark reads.
type servePotentials struct {
	Potentials []float64               `json:"potentials"`
	ElapsedMS  float64                 `json:"elapsed_ms"`
	Info       service.SessionStepInfo `json:"info"`
}

// clientLog is what one client observed during the window.
type clientLog struct {
	lat       [numKinds][]float64
	bytes     int64
	errs      []error
	checks    []serveRequest // first reply of each kind, for the accuracy check
	checkPots [][]float64
	stepMS    []float64 // server-side elapsed of step replies
	migrants  []int     // per step, in order
	replans   int
	late      int // requests encoded inside the window
	// hitByTrace splits the eval-hit latencies into untraced [0] and
	// traced [1] requests (traced runs only).
	hitByTrace [2][]float64
	seen       [numKinds]bool // a reply of this kind is kept for the check
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refill encodes the client's requests for the next d of the window, so
// that no body is encoded while the clock runs. Sent requests are
// dropped, which keeps the benchmark's own memory out of the server's
// peak resident set.
func (sc *serveClient) refill(d time.Duration) {
	n := serveMaxRate * int(math.Ceil(d.Seconds()))
	q := append(make([]serveRequest, 0, n), sc.queue...)
	for len(q) < n {
		q = append(q, sc.next())
	}
	sc.queue = q
}

// runClient sends the client's requests, each after the reply to the
// previous one, until deadline.
func (e *serveEnv) runClient(sc *serveClient, deadline time.Time, reqBase int64) {
	log := sc.log
	for ; time.Now().Before(deadline); sc.sent++ {
		var rq serveRequest
		if len(sc.queue) > 0 {
			rq, sc.queue = sc.queue[0], sc.queue[1:]
		} else {
			rq = sc.next()
			log.late++
		}
		var reply servePotentials
		traced := e.tr != nil && sc.sent%2 == 1
		lat, err := e.post(rq.path, rq.body, &reply, reqBase+int64(sc.sent), traced)
		log.bytes += int64(len(rq.body))
		if err == nil {
			err = checkShape(e.w.kern, e.w.n, reply.Potentials)
		}
		if err != nil {
			log.errs = append(log.errs, fmt.Errorf("%s: %w", kindName[rq.kind], err))
			continue
		}
		log.lat[rq.kind] = append(log.lat[rq.kind], lat)
		if rq.kind == kindHit {
			log.hitByTrace[btoi(traced)] = append(log.hitByTrace[btoi(traced)], lat)
		}
		if rq.kind == kindStep {
			log.stepMS = append(log.stepMS, reply.ElapsedMS)
			log.migrants = append(log.migrants, reply.Info.Migrated)
			if reply.Info.Replanned {
				log.replans++
			}
		}
		if rq.pts != nil && !log.seen[rq.kind] {
			log.seen[rq.kind] = true
			log.checks = append(log.checks, rq)
			log.checkPots = append(log.checkPots, reply.Potentials)
		}
	}
}

// runServe runs the serve workload. The window is split into segments;
// each starts with a cold set-up in a child process (except the first,
// whose set-up is this process's own), and its client window is split into
// slices, each opened by fresh plans, each evaluated once, while the
// clients wait.
func runServe(w workload, seed int64, window time.Duration) (*report, error) {
	r := newReport()
	var s samples
	start := time.Now()
	idx := sample(seed, w.n)

	e, setup, err := startServe(w, seed, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	s.setups = append(s.setups, setup.Seconds())
	clients := e.newClients(seed)
	relErr := 0.0
	elapsed := 0.0
	for seg := 0; seg < segments; seg++ {
		if seg > 0 {
			s.addChild(w, seed, r)
		}
		end := start.Add(window * time.Duration(seg+1) / segments)
		e.prepare(clients, end)
		from := time.Now()
		for sl := 0; sl < serveSlices; sl++ {
			for j := 0; j < servePlansPerSlice; j++ {
				k := (seg*serveSlices+sl)*servePlansPerSlice + j
				relErr = math.Max(relErr, e.coldEvaluation(seed, k, r, idx, &s))
			}
			elapsed += e.runClients(clients, from.Add(end.Sub(from)*time.Duration(sl+1)/serveSlices))
		}
	}
	logs := clientLogs(clients)
	relErr = math.Max(relErr, e.tally(r, logs, idx))

	var all []float64
	var byKind [numKinds][]float64
	for _, l := range logs {
		for k := range byKind {
			byKind[k] = append(byKind[k], l.lat[k]...)
			all = append(all, l.lat[k]...)
		}
	}
	r.set("setup_s", median(s.setups))
	r.set("plan_s", median(s.plans))
	r.set("cold_apply_s", median(s.colds))
	r.set("apply_s", median(byKind[kindHit]))
	r.set("req_per_s", float64(len(all))/elapsed)
	r.set("peak_rss_mb", peakRSSMB())
	r.setExtra("rel_err", "ratio", relErr)
	r.setExtra("req_p95_ms", "ms", 1000*percentile(all, 95))
	for k := reqKind(0); k < numKinds; k++ {
		r.setExtra(kindName[k]+"_p50_ms", "ms", 1000*median(byKind[k]))
	}
	fmt.Printf("samples setup=%d plan=%d cold_apply=%d requests=%d (hit=%d miss=%d step=%d, beyond p95=%d)\n",
		len(s.setups), len(s.plans), len(s.colds), len(all), len(byKind[kindHit]), len(byKind[kindMiss]), len(byKind[kindStep]),
		len(all)-int(math.Ceil(0.95*float64(len(all)))))
	return r, nil
}

// coldEvaluation plans the k-th fresh geometry (a plan sample) and
// evaluates the new plan once (a cold sample). The first one's potentials
// are checked against the direct sum; it returns their relative error.
func (e *serveEnv) coldEvaluation(seed int64, k int, r *report, idx []int, s *samples) float64 {
	w := e.w
	pts := w.points(seed, streamFresh, k)
	body := mustMarshal(service.PlanRequest{Points: wirePoints(pts), Options: e.opts})
	var pr service.PlanResponse
	lat, err := e.post("/v1/plan", body, &pr, 0, false)
	r.op(err)
	if err != nil {
		return 0
	}
	s.plans = append(s.plans, lat)
	den := w.densities(seed, 500+k, w.n)
	body = mustMarshal(service.EvaluateRequest{PlanID: pr.PlanID, Densities: den})
	var reply servePotentials
	lat, err = e.post("/v1/evaluate", body, &reply, 0, false)
	relErr := 0.0
	if err == nil && k == 0 {
		relErr, err = checkAccuracy(w.kern, pts, den, reply.Potentials, idx, w.ceiling)
	} else if err == nil {
		err = checkShape(w.kern, len(pts), reply.Potentials)
	}
	r.op(err)
	if err == nil {
		s.colds = append(s.colds, lat)
	}
	return relErr
}

// newClients builds the closed-loop clients with their request schedules.
func (e *serveEnv) newClients(seed int64) []*serveClient {
	clients := make([]*serveClient, serveClients)
	for c := range clients {
		clients[c] = newServeClient(e, seed, c)
		clients[c].log = &clientLog{}
	}
	return clients
}

// prepare encodes the clients' requests up to deadline and collects the
// garbage, before the clock starts.
func (e *serveEnv) prepare(clients []*serveClient, deadline time.Time) {
	for _, sc := range clients {
		sc.refill(time.Until(deadline))
	}
	runtime.GC()
}

// runClients runs the closed-loop clients until deadline and returns the
// elapsed seconds.
func (e *serveEnv) runClients(clients []*serveClient, deadline time.Time) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.runClient(clients[c], deadline, int64(c+1)<<32)
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

func clientLogs(clients []*serveClient) []*clientLog {
	logs := make([]*clientLog, len(clients))
	for c, sc := range clients {
		logs[c] = sc.log
	}
	return logs
}

// tally counts the window's operations and failures into r, checks the
// first reply of each request kind against the direct sum, and returns the
// largest relative error.
func (e *serveEnv) tally(r *report, logs []*clientLog, idx []int) float64 {
	relErr := 0.0
	for _, l := range logs {
		for k := range l.lat {
			r.attempted += len(l.lat[k])
		}
		for _, err := range l.errs {
			r.op(err)
		}
		for i, rq := range l.checks {
			rel, err := checkAccuracy(e.w.kern, rq.pts, rq.den, l.checkPots[i], idx, e.w.ceiling)
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", kindName[rq.kind], err))
			}
			relErr = math.Max(relErr, rel)
		}
		if l.late > 0 {
			fmt.Printf("note: %d requests encoded inside the window (raise serveMaxRate)\n", l.late)
		}
	}
	return relErr
}

// serveSetupChild is a set-up child for the serve workload: server
// construction, resident plans and sessions. The serve workload's cold
// samples are first evaluations of plans built by a running server, so the
// child evaluates nothing.
func serveSetupChild(w workload, seed int64) (childTimes, error) {
	e, setup, err := startServe(w, seed, nil)
	if err != nil {
		return childTimes{}, err
	}
	e.close()
	return childTimes{SetupS: setup.Seconds()}, nil
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
