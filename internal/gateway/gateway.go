// Package gateway is mincutd's scale-out front tier: an HTTP proxy
// that routes each submission by its canonical spec hash — the same
// content address the replicas cache results under — to a
// consistent-hash ring of mincutd replicas. Sticky spec routing means
// repeat submissions of one spec land on one replica and coalesce or
// cache-hit there, exactly as on a single instance.
//
// The gateway is safe to retry through because the backend is
// deterministic and content-addressed: any replica computes
// byte-identical canonical result bytes for a given spec, so
// re-routing a failed submission, hedging a slow result fetch, or
// replaying a queued job off a dying replica can never surface a
// different answer. Fault handling is built on that property:
//
//   - Active health checks against /healthz?check=ready classify each
//     replica healthy, saturated (live, queue full), draining (live,
//     shutting down), or down (ejected after consecutive transport
//     failures, probed back in on exponential backoff).
//   - Submissions run under a wall-clock budget with bounded retries:
//     a connection failure or 5xx re-routes to the next replica on the
//     ring.
//   - Result fetches optionally hedge: when the owner is slow, a
//     second fetch races it on the next replica and the first 200
//     wins.
//   - Rolling restarts drain cleanly: when a replica turns draining
//     the gateway stops routing new work to it, lets its running jobs
//     finish, and replays its queued-but-unstarted jobs elsewhere;
//     when a replica is ejected outright, every non-terminal job it
//     held is replayed.
//
// Job IDs crossing the gateway are namespaced <replica>.<localID>
// (e.g. "r0.j12"), so polls route statelessly even when the gateway's
// in-memory job tracking has evicted an entry.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"distmincut/internal/chaos"
	"distmincut/internal/service"
)

// Replica names one mincutd instance behind the gateway.
type Replica struct {
	// Name is the replica's gateway-side identity: the prefix of every
	// job ID the gateway hands out for jobs it routed there. Must be
	// unique, non-empty, and dot-free.
	Name string
	// BaseURL is the replica's service root, e.g. "http://127.0.0.1:8371".
	BaseURL string
}

// Options configures a Gateway. The zero value of every field but
// Replicas is usable; defaults are applied by New.
type Options struct {
	// Replicas is the backend set, in ring order. Required.
	Replicas []Replica
	// VirtualNodes is the ring points per replica (default 64).
	VirtualNodes int
	// HealthInterval is the background health-probe period (default
	// 500ms). Negative disables the background prober entirely; tests
	// drive the state machine synchronously with CheckNow.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// EjectAfter is the consecutive probe transport failures that eject
	// a replica (default 2).
	EjectAfter int
	// ReinstateBase is the first re-probe delay after an ejection
	// (default 1s); it doubles per failed re-probe up to ReinstateMax
	// (default 30s).
	ReinstateBase time.Duration
	// ReinstateMax caps the ejection re-probe backoff (default 30s).
	ReinstateMax time.Duration
	// Retries caps upstream submit attempts per client request
	// (default 3: the primary plus two failovers).
	Retries int
	// AttemptTimeout bounds one upstream attempt (default 15s).
	AttemptTimeout time.Duration
	// Budget bounds one client request wall-clock across all its
	// attempts (default 30s).
	Budget time.Duration
	// HedgeAfter launches a second result fetch on the next replica
	// when the primary has not answered within it (default 0 = off).
	HedgeAfter time.Duration
	// Limits are the graph limits used to canonicalize submissions for
	// routing; they should match the replicas' -max-nodes/-max-edges so
	// the gateway derives the same cache key the replica will.
	Limits service.Limits
	// MaxBody bounds the submit request body (service.DefaultMaxBody
	// if 0).
	MaxBody int64
	// TrackedJobs caps the in-flight jobs retained for replay, evicted
	// FIFO (default 8192).
	TrackedJobs int
	// Logger receives gateway logs (default slog.Default()).
	Logger *slog.Logger
}

// withDefaults fills zero-valued options.
func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 2
	}
	if o.ReinstateBase <= 0 {
		o.ReinstateBase = time.Second
	}
	if o.ReinstateMax <= 0 {
		o.ReinstateMax = 30 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 15 * time.Second
	}
	if o.Budget <= 0 {
		o.Budget = 30 * time.Second
	}
	if o.TrackedJobs <= 0 {
		o.TrackedJobs = 8192
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// trackedJob is one in-flight job the gateway can replay: the original
// request bytes plus where the job currently lives. Mutable fields
// (replica, localID, lastState) are guarded by Gateway.mu.
type trackedJob struct {
	id        string // gateway-visible ID, <replica>.<localID> at submit
	key       string // canonical spec content address
	body      []byte // original submit body, replayed verbatim
	replica   string // replica currently holding the job
	localID   string // job ID on that replica
	lastState string // last state seen by a poll or replay
}

// Gateway routes mincutd's HTTP API across a replica ring. Create one
// with New, mount Handler, and Close it on shutdown.
type Gateway struct {
	opts   Options
	ring   *ring
	reps   []*replica
	client *http.Client
	log    *slog.Logger
	m      *metrics

	mu      sync.Mutex
	tracked map[string]*trackedJob
	order   []string // tracked IDs in admission order, for FIFO eviction

	proberStop chan struct{}
	proberDone chan struct{}
}

// New builds a Gateway over opts.Replicas and, unless
// opts.HealthInterval is negative, starts its background health
// prober. Replicas start healthy and are reclassified by the first
// probe sweep.
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	names := make([]string, 0, len(opts.Replicas))
	seen := make(map[string]bool, len(opts.Replicas))
	reps := make([]*replica, 0, len(opts.Replicas))
	for _, r := range opts.Replicas {
		if r.Name == "" || strings.Contains(r.Name, ".") {
			return nil, fmt.Errorf("gateway: bad replica name %q (must be non-empty and dot-free)", r.Name)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("gateway: duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
		if r.BaseURL == "" {
			return nil, fmt.Errorf("gateway: replica %q has no base URL", r.Name)
		}
		names = append(names, r.Name)
		reps = append(reps, &replica{name: r.Name, base: strings.TrimRight(r.BaseURL, "/")})
	}
	g := &Gateway{
		opts:    opts,
		ring:    newRing(len(reps), opts.VirtualNodes),
		reps:    reps,
		client:  &http.Client{},
		log:     opts.Logger,
		m:       newMetrics(names),
		tracked: make(map[string]*trackedJob),
	}
	if opts.HealthInterval > 0 {
		g.proberStop = make(chan struct{})
		g.proberDone = make(chan struct{})
		go g.prober()
	}
	return g, nil
}

// Close stops the background health prober and releases idle upstream
// connections. It does not touch the replicas.
func (g *Gateway) Close() {
	if g.proberStop != nil {
		close(g.proberStop)
		<-g.proberDone
		g.proberStop = nil
	}
	g.client.CloseIdleConnections()
}

// byName returns the named replica, or nil.
func (g *Gateway) byName(name string) *replica {
	for _, rep := range g.reps {
		if rep.name == name {
			return rep
		}
	}
	return nil
}

// submitCandidates returns the replicas accepting new work, in ring
// order from key's owner.
func (g *Gateway) submitCandidates(key string) []*replica {
	return g.candidates(key, func(r *replica) bool { return r.routable() })
}

// readCandidates returns the replicas that can serve reads (everything
// not ejected), in ring order from key's owner. Saturated and draining
// replicas still answer polls and result fetches.
func (g *Gateway) readCandidates(key string) []*replica {
	return g.candidates(key, func(r *replica) bool { return r.alive() })
}

func (g *Gateway) candidates(key string, ok func(*replica) bool) []*replica {
	seq := g.ring.sequence(key)
	out := make([]*replica, 0, len(seq))
	for _, i := range seq {
		if ok(g.reps[i]) {
			out = append(out, g.reps[i])
		}
	}
	return out
}

// Handler returns the gateway's route table — the same surface as one
// mincutd replica, plus gateway-level /healthz and /metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleCancel)
	mux.HandleFunc("GET /v1/results/{key}", g.handleResult)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// passthrough relays an upstream response, copying the headers that
// carry client-facing semantics.
func passthrough(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	for _, k := range []string{"Content-Type", "Retry-After", "Cache-Control"} {
		if hdr != nil {
			if v := hdr.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// viewFields pulls the two job-view fields the gateway routes on.
func viewFields(body []byte) (id, state string) {
	var v struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	_ = json.Unmarshal(body, &v)
	return v.JobID, v.State
}

// rewriteJobID replaces the top-level job_id of a job-view body with
// the gateway-namespaced ID. The body is decoded one level deep into
// raw messages, so every other field — the nested canonical result
// bytes above all — passes through byte-identical.
func rewriteJobID(body []byte, gwID string) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	if _, ok := m["job_id"]; !ok {
		return body
	}
	q, err := json.Marshal(gwID)
	if err != nil {
		return body
	}
	m["job_id"] = q
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// terminalState reports whether a job state is final.
func terminalState(s string) bool {
	switch service.State(s) {
	case service.StateDone, service.StateFailed, service.StateCanceled, service.StateDeadline:
		return true
	}
	return false
}

// forward performs one upstream attempt: per-attempt timeout under the
// caller's context, request/failure counters, and the latency
// histogram. The response body is fully read so the connection is
// reusable and the caller can rewrite it.
func (g *Gateway) forward(ctx context.Context, rep *replica, method, path string, body []byte) (int, []byte, http.Header, error) {
	chaos.Inject(chaos.SiteGatewayForward)
	actx, cancel := context.WithTimeout(ctx, g.opts.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, rep.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rm := g.m.rep(rep.name)
	rm.requests.Add(1)
	start := time.Now()
	resp, err := g.client.Do(req)
	rm.latency.Observe(time.Since(start))
	if err != nil {
		rm.failures.Add(1)
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		rm.failures.Add(1)
		return 0, nil, nil, err
	}
	if resp.StatusCode >= 500 {
		rm.failures.Add(1)
	}
	return resp.StatusCode, data, resp.Header, nil
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	maxBody := g.opts.MaxBody
	if maxBody <= 0 {
		maxBody = service.DefaultMaxBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: "request body exceeds limit"})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request: " + err.Error()})
		return
	}
	var req service.JobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request: " + err.Error()})
		return
	}
	// The canonical key is the routing key: the same hash the replica
	// caches the result under, so identical specs stick to one replica
	// and coalesce there. Invalid specs are rejected here without
	// spending an upstream round-trip.
	_, key, err := service.CanonicalRequest(req, g.opts.Limits)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.opts.Budget)
	defer cancel()

	cands := g.submitCandidates(key)
	if len(cands) == 0 {
		g.m.jobsShed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "gateway: no replica accepting submissions"})
		return
	}
	if len(cands) > g.opts.Retries {
		cands = cands[:g.opts.Retries]
	}
	sawOverload := false
	for i, rep := range cands {
		if i > 0 {
			g.m.rep(rep.name).retries.Add(1)
		}
		status, body, hdr, err := g.forward(ctx, rep, http.MethodPost, "/v1/jobs", raw)
		if err != nil {
			g.log.Warn("submit attempt failed", "replica", rep.name, "err", err)
			if ctx.Err() != nil {
				break // budget exhausted; don't start another attempt
			}
			continue
		}
		switch {
		case status == http.StatusOK || status == http.StatusAccepted:
			g.finishSubmit(w, rep, key, raw, status, body)
			return
		case status == http.StatusServiceUnavailable:
			// The replica is draining or its queue is full: overload,
			// not failure. Another replica may still take the job.
			sawOverload = true
			continue
		case status >= 500:
			g.log.Warn("submit attempt failed", "replica", rep.name, "status", status)
			continue
		default:
			// 4xx (bad spec, admission 429, body too large) is an
			// authoritative answer about the request itself; every
			// replica would agree, so relay it as-is.
			passthrough(w, status, hdr, body)
			return
		}
	}
	if sawOverload {
		g.m.jobsShed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "gateway: all replicas overloaded"})
		return
	}
	g.m.jobsFailed.Add(1)
	writeJSON(w, http.StatusBadGateway, apiError{Error: "gateway: no replica reachable"})
}

// finishSubmit namespaces the accepted job's ID, tracks it for replay
// if it is still in flight, and relays the replica's response.
func (g *Gateway) finishSubmit(w http.ResponseWriter, rep *replica, key string, reqBody []byte, status int, body []byte) {
	localID, state := viewFields(body)
	if localID == "" {
		passthrough(w, status, nil, body)
		return
	}
	gwID := rep.name + "." + localID
	if !terminalState(state) {
		g.track(&trackedJob{
			id: gwID, key: key, body: reqBody,
			replica: rep.name, localID: localID, lastState: state,
		})
	}
	g.m.jobsRouted.Add(1)
	passthrough(w, status, nil, rewriteJobID(body, gwID))
}

// track records an in-flight job for replay, evicting the oldest
// entries past the retention cap. Re-submissions of a spec coalesce on
// the replica into the same local ID, hence the same gateway ID; the
// first record wins.
func (g *Gateway) track(tj *trackedJob) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, exists := g.tracked[tj.id]; exists {
		return
	}
	g.tracked[tj.id] = tj
	g.order = append(g.order, tj.id)
	for len(g.order) > g.opts.TrackedJobs {
		old := g.order[0]
		g.order = g.order[1:]
		delete(g.tracked, old)
	}
}

// noteState folds a state observed by a poll into the tracked record,
// dropping the record once the job is terminal.
func (g *Gateway) noteState(gwID, state string) {
	if state == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if tj, ok := g.tracked[gwID]; ok {
		tj.lastState = state
		if terminalState(state) {
			delete(g.tracked, gwID)
		}
	}
}

// untrack drops a job record (cancel path).
func (g *Gateway) untrack(gwID string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.tracked, gwID)
}

// resolve maps a gateway job ID to the replica currently holding it.
// The tracked map is authoritative (it follows replays); an untracked
// ID falls back to its <replica>.<localID> spelling, cut at the last
// dot because local IDs are dot-free.
func (g *Gateway) resolve(gwID string) (*replica, string) {
	g.mu.Lock()
	if tj, ok := g.tracked[gwID]; ok {
		name, localID := tj.replica, tj.localID
		g.mu.Unlock()
		return g.byName(name), localID
	}
	g.mu.Unlock()
	i := strings.LastIndex(gwID, ".")
	if i <= 0 || i == len(gwID)-1 {
		return nil, ""
	}
	return g.byName(gwID[:i]), gwID[i+1:]
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), g.opts.Budget)
	defer cancel()
	for attempt := 0; ; attempt++ {
		rep, localID := g.resolve(id)
		if rep == nil {
			writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
			return
		}
		status, body, hdr, err := g.forward(ctx, rep, http.MethodGet, "/v1/jobs/"+localID, nil)
		if err != nil {
			writeJSON(w, http.StatusBadGateway, apiError{Error: "gateway: replica " + rep.name + " unavailable"})
			return
		}
		if status == http.StatusOK {
			_, state := viewFields(body)
			// A canceled view can be the replay path's own cleanup: a
			// poll that resolved the old binding just before a replay
			// rebound the job can land on the stale copy after its
			// cleanup DELETE. The rebind strictly precedes that DELETE,
			// so re-resolving now yields the new home — when it does,
			// re-poll there instead of surfacing the internal cancel.
			if state == string(service.StateCanceled) && attempt == 0 {
				if cur, curLocal := g.resolve(id); cur != rep || curLocal != localID {
					continue
				}
			}
			g.noteState(id, state)
			passthrough(w, status, hdr, rewriteJobID(body, id))
			return
		}
		passthrough(w, status, hdr, body)
		return
	}
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, localID := g.resolve(id)
	if rep == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.opts.Budget)
	defer cancel()
	status, body, hdr, err := g.forward(ctx, rep, http.MethodDelete, "/v1/jobs/"+localID, nil)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, apiError{Error: "gateway: replica " + rep.name + " unavailable"})
		return
	}
	if status == http.StatusOK {
		g.untrack(id)
		passthrough(w, status, hdr, rewriteJobID(body, id))
		return
	}
	passthrough(w, status, hdr, body)
}

func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, localID := g.resolve(id)
	if rep == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.opts.Budget)
	defer cancel()
	status, body, hdr, err := g.forward(ctx, rep, http.MethodGet, "/v1/jobs/"+localID+"/trace", nil)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, apiError{Error: "gateway: replica " + rep.name + " unavailable"})
		return
	}
	passthrough(w, status, hdr, body)
}

// fetchRes is one result-fetch attempt's outcome.
type fetchRes struct {
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
}

func (g *Gateway) fetchResult(ctx context.Context, rep *replica, key string, hedged bool) fetchRes {
	status, body, hdr, err := g.forward(ctx, rep, http.MethodGet, "/v1/results/"+key, nil)
	return fetchRes{status: status, header: hdr, body: body, err: err, hedged: hedged}
}

// hedgedFetch races the primary fetch against a hedge launched on the
// backup after HedgeAfter. It returns the winning 200 if either
// produced one, the last definitive non-200 otherwise, and how many
// replicas it consumed from the candidate list.
func (g *Gateway) hedgedFetch(ctx context.Context, primary, backup *replica, key string) (winner, fallback *fetchRes, tried int) {
	ch := make(chan fetchRes, 2) // buffered: a losing fetch must not leak its goroutine
	go func() { ch <- g.fetchResult(ctx, primary, key, false) }()
	timer := time.NewTimer(g.opts.HedgeAfter)
	defer timer.Stop()
	launched := 1
	for got := 0; got < launched; {
		select {
		case <-timer.C:
			g.m.hedges.Add(1)
			go func() { ch <- g.fetchResult(ctx, backup, key, true) }()
			launched = 2
		case res := <-ch:
			got++
			if res.err == nil && res.status == http.StatusOK {
				if res.hedged {
					g.m.hedgeWins.Add(1)
				}
				r := res
				return &r, nil, launched
			}
			if res.err == nil && fallback == nil {
				r := res
				fallback = &r
			}
		}
	}
	return nil, fallback, launched
}

// handleResult serves a content-addressed result from any live replica
// holding it. Results are immutable and byte-identical across
// replicas, which is what makes hedging safe: whichever fetch answers
// first answers correctly.
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	ctx, cancel := context.WithTimeout(r.Context(), g.opts.Budget)
	defer cancel()
	cands := g.readCandidates(key)
	if len(cands) == 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "gateway: no replica reachable"})
		return
	}
	var fallback *fetchRes
	rest := cands
	if g.opts.HedgeAfter > 0 && len(cands) >= 2 {
		var winner *fetchRes
		var tried int
		winner, fallback, tried = g.hedgedFetch(ctx, cands[0], cands[1], key)
		if winner != nil {
			passthrough(w, winner.status, winner.header, winner.body)
			return
		}
		rest = cands[tried:]
	}
	for _, rep := range rest {
		res := g.fetchResult(ctx, rep, key, false)
		if res.err != nil {
			continue
		}
		if res.status == http.StatusOK {
			passthrough(w, res.status, res.header, res.body)
			return
		}
		fallback = &res
	}
	if fallback != nil {
		passthrough(w, fallback.status, fallback.header, fallback.body)
		return
	}
	writeJSON(w, http.StatusBadGateway, apiError{Error: "gateway: no replica reachable"})
}

// handleHealth reports the gateway's own liveness plus each replica's
// health state. Plain GET always answers 200 while the gateway serves;
// with ?check=ready it answers 503 when no replica is accepting new
// submissions.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	type upstream struct {
		Name   string `json:"name"`
		State  string `json:"state"`
		Reason string `json:"reason,omitempty"`
	}
	ups := make([]upstream, 0, len(g.reps))
	healthy := 0
	for _, rep := range g.reps {
		rep.mu.Lock()
		st, reason := rep.state, rep.reason
		rep.mu.Unlock()
		if st == stateHealthy {
			healthy++
		}
		ups = append(ups, upstream{Name: rep.name, State: st.String(), Reason: reason})
	}
	b := service.ReadBuild()
	body := map[string]any{
		"status":    "ok",
		"ready":     healthy > 0,
		"replicas":  len(g.reps),
		"healthy":   healthy,
		"upstreams": ups,
		"version":   b.Version,
		"commit":    b.Commit,
		"go":        b.GoVersion,
	}
	status := http.StatusOK
	if healthy == 0 && r.URL.Query().Get("check") == "ready" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := g.Metrics()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = WritePrometheus(w, m)
}

// jobsOn snapshots the tracked jobs currently living on one replica.
func (g *Gateway) jobsOn(name string) []*trackedJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*trackedJob
	for _, tj := range g.tracked {
		if tj.replica == name {
			out = append(out, tj)
		}
	}
	return out
}

// replayDraining moves queued-but-unstarted jobs off a draining
// replica. Each tracked job is re-polled on the drainer: a running (or
// refining) job is left to finish there — the drain waits for it — but
// a queued job is resubmitted to the next healthy replica and canceled
// on the drainer so the drain completes sooner. Either way the client
// keeps polling the same gateway job ID.
func (g *Gateway) replayDraining(from *replica) {
	for _, tj := range g.jobsOn(from.name) {
		g.mu.Lock()
		localID := tj.localID
		g.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), g.opts.AttemptTimeout)
		status, body, _, err := g.forward(ctx, from, http.MethodGet, "/v1/jobs/"+localID, nil)
		cancel()
		if err != nil || status != http.StatusOK {
			// Unreachable mid-drain: treat like a dead replica for this
			// job and replay it unconditionally.
			g.replay(tj, from, false)
			continue
		}
		_, state := viewFields(body)
		if state == string(service.StateQueued) {
			g.replay(tj, from, true)
		} else {
			g.noteState(tj.id, state)
		}
	}
}

// replayDown replays every non-terminal tracked job off an ejected
// replica. There is nothing to poll — the replica is unreachable — so
// jobs are resubmitted wholesale; determinism makes the duplicate
// computation harmless and the results byte-identical.
func (g *Gateway) replayDown(from *replica) {
	for _, tj := range g.jobsOn(from.name) {
		g.mu.Lock()
		terminal := terminalState(tj.lastState)
		g.mu.Unlock()
		if !terminal {
			g.replay(tj, from, false)
		}
	}
}

// replay resubmits one tracked job's original body to the first
// healthy replica past from, rebinding the gateway job ID to the new
// home. cancelOld additionally cancels the stale copy on from (drain
// politeness; an ejected replica is unreachable anyway).
func (g *Gateway) replay(tj *trackedJob, from *replica, cancelOld bool) {
	chaos.Inject(chaos.SiteGatewayReplay)
	g.mu.Lock()
	body, key, oldLocal := tj.body, tj.key, tj.localID
	g.mu.Unlock()
	for _, rep := range g.submitCandidates(key) {
		if rep == from {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.opts.AttemptTimeout)
		status, respBody, _, err := g.forward(ctx, rep, http.MethodPost, "/v1/jobs", body)
		cancel()
		if err != nil || (status != http.StatusOK && status != http.StatusAccepted) {
			continue
		}
		localID, state := viewFields(respBody)
		if localID == "" {
			continue
		}
		g.mu.Lock()
		tj.replica, tj.localID, tj.lastState = rep.name, localID, state
		if terminalState(state) {
			delete(g.tracked, tj.id)
		}
		g.mu.Unlock()
		g.m.rep(from.name).replays.Add(1)
		g.log.Info("job replayed", "job", tj.id, "from", from.name, "to", rep.name, "state", state)
		if cancelOld {
			ctx, cancel := context.WithTimeout(context.Background(), g.opts.AttemptTimeout)
			_, _, _, _ = g.forward(ctx, from, http.MethodDelete, "/v1/jobs/"+oldLocal, nil)
			cancel()
		}
		return
	}
	g.log.Warn("no healthy replica to replay job", "job", tj.id, "from", from.name)
}
