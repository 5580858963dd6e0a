package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"distmincut/internal/baseline"
	"distmincut/internal/gateway"
	"distmincut/internal/graph"
	"distmincut/internal/harness"
	"distmincut/internal/service"
	"distmincut/internal/verify"
)

const (
	// mixRate is the open-loop arrival rate. A miss-only closed loop
	// of two clients sustains about 12.7 jobs/s on two cores, and half
	// of this mix are misses, so misses run at about half capacity.
	mixRate = 12.0
	// sloLimit is the completion-latency limit, from the due time.
	sloLimit = 2 * time.Second
	// A job is polled every tenth of its age so far, within these
	// bounds: the latency a poll adds stays under about a tenth of the
	// latency measured, while a slow job costs the server a handful of
	// polls, not one every few milliseconds.
	pollMin = time.Millisecond
	pollMax = 50 * time.Millisecond
	// giveUp abandons a request this long after its due time.
	giveUp = 60 * time.Second
	// replicas is the number of service instances behind the gateway.
	replicas = 2
)

// mixReq is one scheduled request with what its checks need.
type mixReq struct {
	req    service.JobRequest
	tier   string // canonical tier
	eps    float64
	hot    bool // a repeat from the pre-warmed hot set
	class  int  // the corpus entry it re-seeds
	due    time.Duration
	lambda int64
	g      *graph.Graph
}

// schedule draws the request sequence for one run. Requests come in
// pairs, one hot repeat and one miss in a seeded order, and each cycle
// through the corpus is a seeded permutation, so every seed sends the
// same share of each corpus entry; a miss re-seeds its entry (graph
// seed where the family has one, protocol seed always) so no miss key
// ever repeats.
func schedule(seed int64, n int, corpus []service.JobRequest) (hot []mixReq, reqs []mixReq, err error) {
	rng := rand.New(rand.NewSource(seed))
	for i, r := range corpus {
		m, err := prepare(r, seed, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus entry %d: %w", i, err)
		}
		m.hot, m.class = true, i
		hot = append(hot, m)
	}
	cycle := func() func() int {
		var perm []int
		return func() int {
			if len(perm) == 0 {
				perm = rng.Perm(len(corpus))
			}
			k := perm[0]
			perm = perm[1:]
			return k
		}
	}
	nextHot, nextMiss := cycle(), cycle()
	for len(reqs) < n {
		h := hot[nextHot()]
		k := nextMiss()
		m, err := prepare(corpus[k], seed, int64(len(reqs))+1)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus entry %d: %w", k, err)
		}
		m.class = k
		pair := []mixReq{h, m}
		if rng.Intn(2) == 1 {
			pair[0], pair[1] = m, h
		}
		reqs = append(reqs, pair...)
	}
	reqs = reqs[:n]
	for i := range reqs {
		reqs[i].due = time.Duration(float64(i) / mixRate * float64(time.Second))
	}
	return hot, reqs, nil
}

// seededFamilies are the graph families whose generator takes a seed.
var seededFamilies = map[string]bool{"gnp": true, "planted": true, "random_regular": true}

// prepare re-seeds one corpus entry and runs its oracle.
func prepare(r service.JobRequest, seed, salt int64) (mixReq, error) {
	s := seed*1_000_003 + salt*101
	q := r
	q.Seed = s
	if seededFamilies[q.Graph.Family] {
		q.Graph.Seed = r.Graph.Seed + s
	}
	canon, _, err := service.CanonicalRequest(q, service.Limits{})
	if err != nil {
		return mixReq{}, err
	}
	g, err := service.Build(canon.Graph)
	if err != nil {
		return mixReq{}, err
	}
	lambda, _, err := baseline.StoerWagner(g)
	if err != nil {
		return mixReq{}, err
	}
	if !graph.IsConnected(g) {
		return mixReq{}, fmt.Errorf("%s graph with seed %d is disconnected", q.Graph.Family, q.Graph.Seed)
	}
	return mixReq{req: q, tier: canon.Tier, eps: canon.Epsilon, lambda: lambda, g: g}, nil
}

// fleet is the served stack: replicas behind a gateway, each on its
// own localhost listener.
type fleet struct {
	svcs  []*service.Service
	srvs  []*httptest.Server
	gw    *gateway.Gateway
	gwSrv *httptest.Server
}

func startFleet() (*fleet, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{}
	var reps []gateway.Replica
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		svc := service.New(service.Options{PoolSize: 1, Replica: name, Logger: quiet})
		srv := httptest.NewServer(service.NewAPI(svc).Handler())
		f.svcs = append(f.svcs, svc)
		f.srvs = append(f.srvs, srv)
		reps = append(reps, gateway.Replica{Name: name, BaseURL: srv.URL})
	}
	gw, err := gateway.New(gateway.Options{Replicas: reps, Logger: quiet})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	f.gwSrv = httptest.NewServer(gw.Handler())
	gw.CheckNow()
	if h := gw.Metrics().HealthyReplicas; h != replicas {
		f.close()
		return nil, fmt.Errorf("gateway sees %d of %d replicas healthy", h, replicas)
	}
	resp, err := http.Get(f.gwSrv.URL + "/healthz")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("gateway health: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.close()
		return nil, fmt.Errorf("gateway health: status %d", resp.StatusCode)
	}
	return f, nil
}

func (f *fleet) close() {
	if f.gw != nil {
		f.gw.Close()
	}
	if f.gwSrv != nil {
		f.gwSrv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, svc := range f.svcs {
		f.srvs[i].Close()
		_ = svc.Shutdown(ctx) // every job has finished; a drain error only delays exit
	}
}

// outcome is one request as the client saw it.
type outcome struct {
	hot, hit    bool
	lag         time.Duration // launch minus due time
	latency     time.Duration // due time to terminal state
	firstAnswer time.Duration // due time to the first usable result
	polls       int
	calls       int           // HTTP calls made to the gateway
	callTime    time.Duration // their summed latency
	shed        bool
	err         error
	view        service.JobView
	result      service.Result
}

// client drives the gateway with at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func (c *client) call(o *outcome, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.calls++
	o.callTime += time.Since(t0)
	return resp.StatusCode, data, err
}

// do submits one request at its due time and polls it to a terminal
// state. Latencies are measured from due, so a late generator or a
// stalled server charges every request it delays.
func (c *client) do(r mixReq, due time.Time) outcome {
	o := outcome{hot: r.hot, lag: time.Since(due)}
	body, err := json.Marshal(r.req)
	if err != nil {
		o.err = err
		return o
	}
	status, data, err := c.call(&o, http.MethodPost, "/v1/jobs", body)
	switch {
	case err != nil:
		o.err = fmt.Errorf("submit: %w", err)
		return o
	case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
		o.shed = true
		return o
	case status != http.StatusOK && status != http.StatusAccepted:
		o.err = fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(data))
		return o
	}
	if err := json.Unmarshal(data, &o.view); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.hit = o.view.CacheHit
	for !terminal(o.view.State) {
		if len(o.view.Approx) > 0 && o.firstAnswer == 0 {
			o.firstAnswer = time.Since(due)
		}
		if time.Since(due) > giveUp {
			o.err = fmt.Errorf("job %s still %s after %v", o.view.ID, o.view.State, giveUp)
			return o
		}
		time.Sleep(min(max(time.Since(due)/10, pollMin), pollMax))
		o.polls++
		status, data, err := c.call(&o, http.MethodGet, "/v1/jobs/"+o.view.ID, nil)
		if err != nil || status != http.StatusOK {
			o.err = fmt.Errorf("poll %s: status %d: %v", o.view.ID, status, err)
			return o
		}
		if err := json.Unmarshal(data, &o.view); err != nil {
			o.err = fmt.Errorf("poll %s: %w", o.view.ID, err)
			return o
		}
	}
	o.latency = time.Since(due)
	if o.firstAnswer == 0 {
		o.firstAnswer = o.latency
	}
	o.err = checkView(r, o.view, &o.result)
	return o
}

func terminal(s service.State) bool {
	return s == service.StateDone || s == service.StateFailed ||
		s == service.StateCanceled || s == service.StateDeadline
}

// checkView decodes a finished job and checks it by tier: exact equals
// λ, approx lies within [λ, (1+ε)λ], respect is a cut no lighter than
// λ, bracket contains λ; a tiered job's approx phase and exact result
// are checked the same way. Every witness side is re-weighed.
func checkView(r mixReq, v service.JobView, res *service.Result) error {
	if v.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if err := json.Unmarshal(v.Result, res); err != nil {
		return fmt.Errorf("job %s: result: %w", v.ID, err)
	}
	if r.tier != service.TierTiered {
		return checkResult(r, r.tier, *res)
	}
	var approx service.Result
	if err := json.Unmarshal(v.Approx, &approx); err != nil {
		return fmt.Errorf("job %s: approx phase: %w", v.ID, err)
	}
	return errors.Join(checkResult(r, service.TierApprox, approx), checkResult(r, service.TierExact, *res))
}

func checkResult(r mixReq, tier string, res service.Result) error {
	if res.Tier != tier {
		return fmt.Errorf("served tier %q, want %q", res.Tier, tier)
	}
	l := r.lambda
	if tier == service.TierBracket {
		if res.Lo > l || l > res.Hi {
			return fmt.Errorf("bracket [%d, %d] misses λ = %d", res.Lo, res.Hi, l)
		}
		return nil
	}
	if w, err := sideWeight(r.g, res.Side); err != nil || w != res.Value {
		return fmt.Errorf("%s: witness side weighs %d (%v), result says %d", tier, w, err, res.Value)
	}
	switch tier {
	case service.TierExact:
		if res.Value != l || !res.Exact {
			return fmt.Errorf("exact: cut %d (exact %v), want λ = %d", res.Value, res.Exact, l)
		}
	case service.TierApprox:
		if res.Value < l || float64(res.Value) > (1+r.eps)*float64(l) {
			return fmt.Errorf("approx: cut %d outside [λ, (1+%g)λ] for λ = %d", res.Value, r.eps, l)
		}
	case service.TierRespect:
		if res.Value < l {
			return fmt.Errorf("respect: cut %d below λ = %d", res.Value, l)
		}
	}
	return nil
}

// sideWeight decodes a result's base64 side bitset (node i is bit i%8
// of byte i/8) and weighs the cut it marks.
func sideWeight(g *graph.Graph, bits string) (int64, error) {
	raw, err := base64.StdEncoding.DecodeString(bits)
	if err != nil {
		return 0, err
	}
	if len(raw) != (g.N()+7)/8 {
		return 0, fmt.Errorf("side has %d bytes for n = %d", len(raw), g.N())
	}
	side := make([]bool, g.N())
	for i := range side {
		side[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return verify.CutSides(g, side)
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: giveUp}}
}

// counters snapshots the service and gateway counters the per-layer
// metrics take deltas of across the measurement window.
type counters struct {
	hits, misses, coalesced, shed, degraded int64
	retries, failures, upCount              int64
	upSum                                   float64
	upCounts                                []int64
	upBounds                                []float64
}

func (f *fleet) counters() counters {
	var c counters
	for _, s := range f.svcs {
		m := s.Metrics()
		c.hits += m.CacheHits
		c.misses += m.CacheMisses
		c.coalesced += m.Coalesced
		c.shed += m.Shed
		c.degraded += m.Degraded
	}
	gm := f.gw.Metrics()
	for _, r := range gm.PerReplica {
		c.retries += r.Retries
		c.failures += r.Failures
		h := r.UpstreamLatency
		c.upBounds = h.Bounds
		if c.upCounts == nil {
			c.upCounts = make([]int64, len(h.Counts))
		}
		for i, n := range h.Counts {
			c.upCounts[i] += n
		}
		c.upCount += h.Count
		c.upSum += h.SumSeconds
	}
	c.failures += gm.JobsFailed
	c.shed += gm.JobsShed
	return c
}

func runServiceMix(cfg config) (*result, error) {
	res := &result{}
	var setups []float64
	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for i := 0; i < cfg.setupReps; i++ {
		t0 := time.Now()
		nf, err := startFleet()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if f != nil {
			f.close()
		}
		f = nf
	}

	n := int(mixRate * cfg.duration.Seconds())
	corpus := harness.ServiceCorpus(true)
	if cfg.tiny {
		n = min(n, 24)
	}
	hot, reqs, err := schedule(cfg.seed, n, corpus)
	if err != nil {
		return nil, err
	}
	c := newClient(f.gwSrv.URL)
	defer c.http.CloseIdleConnections()

	// Warm the hot set, untimed: after this every hot request is a
	// cache hit on the replica sticky routing sends it to.
	var wg sync.WaitGroup
	warm := make([]outcome, len(hot))
	for i, r := range hot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm[i] = c.do(r, time.Now())
		}()
	}
	wg.Wait()
	for i, o := range warm {
		res.attempted++
		if o.err != nil || o.shed {
			res.failOp("warm-up %d: shed=%v %v", i, o.shed, o.err)
		}
	}

	before := f.counters()
	outs := make([]outcome, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = c.do(r, due)
		}()
	}
	wg.Wait()
	window := time.Since(start)
	after := f.counters()

	// The service's own job timelines, read after the window so
	// fetching them adds no load to it.
	var all, hits, misses, first, lags, rounds, messages []float64
	var stages []jobStages
	runByClass := map[int][]float64{}
	var setupUs []float64
	missByTier := map[string][]float64{}
	traces := map[string]json.RawMessage{}
	var shed, sloMiss, polls, calls int
	var callTime time.Duration
	for i, o := range outs {
		res.attempted++
		lags = append(lags, ms(o.lag))
		polls += o.polls
		calls += o.calls
		callTime += o.callTime
		switch {
		case o.shed:
			shed++
			sloMiss++
			res.failOp("request %d shed", i)
			continue
		case o.err != nil:
			sloMiss++
			res.failOp("request %d (%s, hot %v): %v", i, reqs[i].tier, o.hot, o.err)
			continue
		}
		if o.latency > sloLimit {
			sloMiss++
		}
		all = append(all, ms(o.latency))
		first = append(first, ms(o.firstAnswer))
		if o.hit {
			hits = append(hits, ms(o.latency))
			continue
		}
		misses = append(misses, ms(o.latency))
		missByTier[reqs[i].tier] = append(missByTier[reqs[i].tier], ms(o.latency))
		rounds = append(rounds, float64(o.result.Rounds))
		messages = append(messages, float64(o.result.Messages))
		setupUs = append(setupUs, float64(o.view.SetupNs)/1e3)
		raw, err := f.trace(o.view.ID)
		var st jobStages
		if err == nil {
			st, err = parseJobTrace(raw)
		}
		if err != nil {
			res.fail("request %d: job timeline: %v", i, err)
			continue
		}
		stages = append(stages, st)
		runByClass[reqs[i].class] = append(runByClass[reqs[i].class], st.run)
		traces[o.view.ID] = raw
	}
	if len(misses) == 0 || len(hits) == 0 || len(stages) == 0 {
		res.fail("no completed %s", map[bool]string{true: "misses", false: "hits"}[len(misses) == 0])
		return res, nil
	}
	stage := func(get func(jobStages) float64) []float64 {
		xs := make([]float64, len(stages))
		for i, st := range stages {
			xs[i] = get(st)
		}
		return xs
	}
	run := stage(func(st jobStages) float64 { return st.run })
	nTot := float64(len(outs))
	res.note("open loop: %d requests at %.0f/s over %.1f s through a gateway to %d replicas (pool 1 each); window took %.1f s",
		len(reqs), mixRate, cfg.duration.Seconds(), replicas, window.Seconds())
	res.note("setup: %d reps, median %.4f s", len(setups), median(setups))
	res.note("job_p50_ms = %.3f ms, mean %.3f ms (n=%d)", median(all), mean(all), len(all))
	res.note("job_p95_ms = %s", tailText(all, 0.95))
	res.note("hit_p50_ms = %.3f ms (n=%d)", median(hits), len(hits))
	res.note("miss_p50_ms = %.3f ms, mean %.3f ms (n=%d)", median(misses), mean(misses), len(misses))
	for _, t := range sortedKeys(missByTier) {
		res.note("  miss p50 at tier %-8s %9.3f ms (n=%d)", t, median(missByTier[t]), len(missByTier[t]))
	}
	queue := stage(func(st jobStages) float64 { return st.queueWait })
	res.note("miss run stage: p50 %.3f ms, mean %.3f ms; queue wait p50 %.3f ms, p95 %s",
		median(run), mean(run), median(queue), tailText(queue, 0.95))
	res.note("first_answer_p95_ms = %s", tailText(first, 0.95))
	res.note("slo_miss_ratio = %.4f (%d of %d over %v, shed or failed; %d shed)",
		float64(sloMiss)/nTot, sloMiss, len(outs), sloLimit, shed)
	// A miss is one request class in eleven, with run times 100× apart,
	// so every quantile of the misses sits on a class boundary and
	// jumps between seeds; means over the stratified mix do not. The
	// run stage counts each class by its fastest run: the other
	// replica's jobs and the hypervisor's steal time only ever slow a
	// run down, and they, not the solver, set a class's slower runs.
	var fastest []float64
	for _, rs := range runByClass {
		fastest = append(fastest, sortedCopy(rs)[0])
	}
	res.note("solve_s: mean over %d request classes of the fastest run stage = %.3f ms", len(fastest), mean(fastest))
	res.e2e = []metric{
		{"setup_s", "s", median(setups)},
		{"solve_s", "s", mean(fastest) / 1e3},
		{"rounds", "count", mean(rounds)},
		{"messages", "count", mean(messages)},
		{"peak_rss_mb", "MB", peakRSSMB()},
	}
	if !cfg.trace {
		return res, nil
	}

	res.spans = traces
	layers := map[string]float64{}
	d := func(a, b int64) float64 { return float64(a - b) }
	build := stage(func(st jobStages) float64 { return st.build })
	uncovered := stage(func(st jobStages) float64 { return st.uncovered })
	layers["service.queue_wait_p50_ms"] = median(queue)
	layers["service.build_ms"] = median(build)
	layers["graph.gen_ms"] = median(build)
	layers["service.run_ms"] = median(run)
	layers["service.post_run_ms"] = median(stage(func(st jobStages) float64 { return st.postRun }))
	layers["service.setup_us"] = median(setupUs)
	layers["trace.uncovered_ms"] = median(uncovered)
	lookups := d(after.hits, before.hits) + d(after.misses, before.misses)
	layers["service.cache_hit_ratio"] = d(after.hits, before.hits) / max(lookups, 1)
	layers["service.coalesced"] = d(after.coalesced, before.coalesced)
	layers["service.shed"] = d(after.shed, before.shed)
	layers["service.degraded"] = d(after.degraded, before.degraded)
	upCounts := make([]int64, len(after.upCounts))
	for i := range upCounts {
		upCounts[i] = after.upCounts[i] - before.upCounts[i]
	}
	layers["gateway.upstream_p50_ms"] = 1e3 * histQuantile(after.upBounds, upCounts, 0.5)
	upMean := (after.upSum - before.upSum) / max(d(after.upCount, before.upCount), 1) * 1e3
	layers["gateway.hop_ms"] = ms(callTime)/float64(max(calls, 1)) - upMean
	layers["gateway.retries"] = d(after.retries, before.retries)
	layers["gateway.failures"] = d(after.failures, before.failures)
	var repeats, stickyHits float64
	for _, o := range outs {
		if o.hot {
			repeats++
			if o.hit {
				stickyHits++
			}
		}
	}
	layers["gateway.sticky_hit_ratio"] = stickyHits / max(repeats, 1)
	lag, err := tail(lags, 0.95)
	if err != nil {
		lag = sortedCopy(lags)[len(lags)-1]
		res.note("client.lag_p95_ms reports the maximum lag: %v", err)
	}
	layers["client.lag_p95_ms"] = lag
	layers["client.polls_per_job"] = float64(polls) / nTot
	// Job timelines are read after the window, so the traced run's
	// load is the untraced run's load: no overhead to report.
	layers["trace.overhead_ratio"] = 0
	res.layers = layers
	res.note("job timelines: %d misses; uncovered remainder per job: %.3f ms (median)", len(stages), median(uncovered))
	return res, nil
}

// trace fetches a gateway job's timeline from the replica that ran it.
// Gateway job IDs are <replica>.<local ID>.
func (f *fleet) trace(gwID string) ([]byte, error) {
	rep, local, ok := strings.Cut(gwID, ".")
	for _, s := range f.svcs {
		if ok && s.Replica() == rep {
			if raw, found := s.Trace(local); found {
				return raw, nil
			}
		}
	}
	return nil, fmt.Errorf("no timeline for job %q", gwID)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func tailText(xs []float64, p float64) string {
	v, err := tail(xs, p)
	if err != nil {
		return "n/a: " + err.Error()
	}
	return fmt.Sprintf("%.3f ms (n=%d)", v, len(xs))
}

// jobStages is one job's service-side timeline, in milliseconds.
type jobStages struct {
	queueWait, build, run, postRun, uncovered float64
}

// parseJobTrace reads a job's Chrome trace (service.Service.Trace):
// queue wait is queued → started, build and run:<tier> are phase
// spans, and post-run is the last run's end → done (encode and
// publish). uncovered is whatever of queued → done none of those
// stages accounts for.
func parseJobTrace(raw []byte) (jobStages, error) {
	var tr struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		return jobStages{}, err
	}
	var st jobStages
	queued, started, done, runEnd := -1.0, -1.0, -1.0, -1.0
	for _, e := range tr.TraceEvents {
		switch {
		case e.Cat == "lifecycle" && e.Name == "queued":
			queued = e.Ts
		case e.Cat == "lifecycle" && e.Name == "started":
			started = e.Ts
		case e.Cat == "lifecycle" && e.Name == string(service.StateDone):
			done = e.Ts
		case e.Cat == "phase" && e.Name == "build" && e.Dur != nil:
			st.build += *e.Dur / 1e3
		case e.Cat == "phase" && strings.HasPrefix(e.Name, "run:") && e.Dur != nil:
			st.run += *e.Dur / 1e3
			runEnd = max(runEnd, e.Ts+*e.Dur)
		}
	}
	if queued < 0 || started < 0 || done < 0 || runEnd < 0 {
		return jobStages{}, fmt.Errorf("timeline lacks queued/started/run/done events")
	}
	st.queueWait = (started - queued) / 1e3
	st.postRun = (done - runEnd) / 1e3
	st.uncovered = (done-queued)/1e3 - st.queueWait - st.build - st.run - st.postRun
	return st, nil
}
