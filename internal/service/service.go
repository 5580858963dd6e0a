package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distmincut"
	"distmincut/internal/chaos"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a pool worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the protocol.
	StateRunning State = "running"
	// StateRefining is the tiered tier's intermediate phase: the job's
	// approximate answer is already published (JobView.Approx) while
	// the exact certified cut is still being computed. Canceling or
	// draining a refining job keeps the published approximate payload
	// on the job record.
	StateRefining State = "refining"
	// StateDone: finished with a result (terminal).
	StateDone State = "done"
	// StateFailed: finished with an error (terminal).
	StateFailed State = "failed"
	// StateCanceled: canceled by request or drain deadline (terminal).
	StateCanceled State = "canceled"
	// StateDeadline: the job's wall-clock deadline or round budget
	// expired and the run was killed at an engine round boundary
	// (terminal). Partial progress (rounds/messages at the abort) stays
	// on the record, a tiered job keeps its published approximate
	// payload, and the view carries a Retry-After hint.
	StateDeadline State = "deadline"
)

// ErrBusy is returned by Submit when the job queue is full.
var ErrBusy = errors.New("service: queue full")

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("service: shutting down")

// CostEstimate is the admission controller's verdict on an exact or
// tiered submission: the ~100-round bracket pre-pass brackets λ in
// [LambdaLo, LambdaHi], and EstRounds extrapolates the poly(λ) exact
// pipeline from the upper bracket. It is the body of an admission
// rejection (HTTP 429).
type CostEstimate struct {
	LambdaLo      int64 `json:"lambda_lo"`
	LambdaHi      int64 `json:"lambda_hi"`
	BracketRounds int   `json:"bracket_rounds"`
	// EstRounds ~ (√n + bracket rounds) · λhi²: τ(λ)=O(λ) trees at
	// O(√n + D) rounds each, times O(λ) doubling guesses.
	EstRounds int64 `json:"est_rounds"`
	// Ceiling is the configured admission ceiling EstRounds exceeded.
	Ceiling int64 `json:"ceiling"`
	// HintTier is the tier the client should retry at (always served:
	// its cost does not grow with λ).
	HintTier string `json:"hint_tier"`
}

// AdmissionError is returned by Submit when the admission controller
// rejects an exact/tiered request whose estimated round cost exceeds
// the configured ceiling. The HTTP layer renders it as 429 with the
// CostEstimate as a typed body. The bracket pre-pass that produced the
// estimate is already cached, so the suggested bracket/approx retry is
// cheap.
type AdmissionError struct {
	Est CostEstimate
}

// Error renders the rejection with the bracketed λ and the retry hint.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("service: admission rejected: estimated %d rounds exceeds ceiling %d (λ ∈ [%d, %d]); retry at tier %q",
		e.Est.EstRounds, e.Est.Ceiling, e.Est.LambdaLo, e.Est.LambdaHi, e.Est.HintTier)
}

// AdmissionOptions configure cost-based admission control for exact
// and tiered submissions. Zero CeilingRounds disables admission.
type AdmissionOptions struct {
	// CeilingRounds is the estimated-round budget above which an
	// exact/tiered submission is rejected (or down-tiered). The
	// estimate is (√n + bracket rounds) · λhi² from a ~100-round
	// bracket pre-pass whose result is cached under the bracket tier
	// key, byte-identical to a direct bracket submission.
	CeilingRounds int64
	// Downtier, when set, serves over-ceiling submissions at the approx
	// tier (recorded as JobView.DegradedFrom) instead of rejecting
	// them.
	Downtier bool
}

// DegradeOptions configure queue-pressure load shedding: as queue
// depth crosses each threshold (a fraction of queue capacity in
// (0, 1]), new submissions above the named tier are served at that
// tier instead, stepping exact → tiered → approx → bracket. Zero
// thresholds are off; the respect tier is never degraded (it is an
// explicit diagnostics request, not a cost choice).
type DegradeOptions struct {
	// TieredAt caps new work at the tiered tier (exact submissions
	// become tiered) once len(queue)/cap(queue) ≥ TieredAt.
	TieredAt float64
	// ApproxAt caps new work at the approx tier.
	ApproxAt float64
	// BracketAt caps new work at the bracket tier.
	BracketAt float64
}

// tierRank orders the degradable tiers cheapest-first. The respect
// tier is absent: it is never a degradation source or target.
var tierRank = map[string]int{
	TierBracket: 0,
	TierApprox:  1,
	TierTiered:  2,
	TierExact:   3,
}

// Options configures a Service. The zero value is ready to use.
type Options struct {
	// PoolSize bounds how many jobs execute protocols concurrently
	// (default GOMAXPROCS, at least 2).
	PoolSize int
	// QueueDepth bounds jobs accepted but not yet running (default
	// 256). Submit returns ErrBusy beyond it.
	QueueDepth int
	// CacheEntries bounds the result cache (default 4096).
	CacheEntries int
	// JobRetention bounds how many finished job records are kept for
	// polling (default 4096). Beyond it the oldest finished records
	// are dropped and their IDs answer 404; results stay reachable via
	// the content-addressed cache. In-flight jobs are never dropped.
	JobRetention int
	// Limits bounds accepted specs (zero fields take DefaultLimits).
	Limits Limits
	// DefaultDeadline bounds every job whose request carries no
	// deadline_ms of its own. Zero means no default: only explicit
	// per-job deadlines apply.
	DefaultDeadline time.Duration
	// MaxJobRounds caps the simulated rounds of any single protocol
	// run (per phase for tiered jobs); a run that trips it is killed at
	// the round boundary and reported as StateDeadline. Zero applies
	// only the runtime's own safety cap.
	MaxJobRounds int
	// Admission configures cost-based admission control for
	// exact/tiered submissions (off when zero).
	Admission AdmissionOptions
	// Degrade configures queue-pressure tier degradation (off when
	// zero).
	Degrade DegradeOptions
	// Logger receives the service's structured log events (admission,
	// degradation, shedding, job outcomes, drain). Nil discards them.
	Logger *slog.Logger
	// FlightRounds sizes the per-execution flight recorder: the ring of
	// last-K round records appended to a job's trace when a deadline or
	// round budget kills the run. Zero takes
	// congest.DefaultFlightRounds; negative disables the recorder
	// (traces of aborted jobs then carry no round tail).
	FlightRounds int
	// Replica names this service instance in a multi-replica
	// deployment. It is incidental identity, never job identity: it
	// appears on JobView.Replica and in /healthz so a gateway or client
	// can tell which instance answered, and is deliberately absent from
	// the canonical Result bytes, which stay byte-identical across
	// replicas. Empty means single-instance (the field is omitted).
	Replica string
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = runtime.GOMAXPROCS(0)
		if o.PoolSize < 2 {
			o.PoolSize = 2
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.JobRetention <= 0 {
		o.JobRetention = 4096
	}
	o.Limits = o.Limits.withDefaults()
	return o
}

// Result is the canonical, cacheable outcome of one job. It contains
// no timestamps or per-run incidentals: its JSON encoding is a pure
// function of the canonical request, which is what makes cached bytes
// reusable verbatim.
type Result struct {
	Key string `json:"key"`
	// Mode mirrors Tier (it predates tiers and is kept for clients
	// reading the original field).
	Mode string `json:"mode"`
	// Tier names the serving tier that produced this result: exact,
	// approx, bracket, or respect. A tiered job never appears here —
	// its phases are cached as their own tiers.
	Tier string `json:"tier"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Value is the weight of the returned cut. For the bracket tier it
	// is the certified witness cut (minimum weighted degree) and Lo/Hi
	// bracket the true λ; for other tiers Lo/Hi are omitted.
	Value       int64 `json:"value"`
	Lo          int64 `json:"lo,omitempty"`
	Hi          int64 `json:"hi,omitempty"`
	Exact       bool  `json:"exact"`
	BestNode    int64 `json:"best_node"`
	TreesPacked int   `json:"trees_packed"`
	Levels      int   `json:"levels"`
	Rounds      int   `json:"rounds"`
	Messages    int64 `json:"messages"`
	// SideIn is the size of the cut side marked true; Side is the full
	// side assignment as a base64 bitset (node i = bit i%8 of byte
	// i/8).
	SideIn int    `json:"side_in"`
	Side   string `json:"side"`
}

// job is one submitter's record; all mutable fields are guarded by the
// service mutex except the progress gauge (atomic by construction).
// Submissions coalesced onto the same canonical key each get their own
// job record, all attached to one shared exec.
type job struct {
	id       string
	key      string
	tier     string
	state    State
	cacheHit bool
	err      string
	result   []byte
	approx   []byte // tiered: the published approximate-phase result
	setupNs  int64  // engine setup time of the completed run (0 for cache hits)
	progress *execProgress
	exec     *exec // nil once terminal (or for cache-hit records)
	// degradedFrom is the originally requested tier when overload
	// degraded this submission (queue pressure or admission downtier);
	// empty when the job runs at its requested tier.
	degradedFrom string
	// budget is the job's wall-clock allowance (deadline_ms or the
	// server default); it sizes the Retry-After hint on a deadline.
	budget   time.Duration
	created  time.Time
	started  time.Time
	finished time.Time
	// trace is the job's event timeline (see traceEvent), served by
	// Service.Trace. Job-local events (queued, degraded, terminal state,
	// flight-recorder tail) live here; while the job is attached to an
	// execution the shared execution's events are appended at snapshot
	// time, and at finalization they are merged in permanently.
	trace []traceEvent
}

// exec is one protocol execution, shared by every job record coalesced
// onto its canonical key. Canceling a job only detaches that record;
// the execution itself is canceled when its last waiter detaches. All
// fields are guarded by the service mutex except the progress gauge.
type exec struct {
	key      string
	req      JobRequest
	tier     string
	state    State // StateQueued, StateRunning or StateRefining; terminal states live on jobs
	progress *execProgress
	cancel   context.CancelFunc // set once running
	waiters  []*job             // attached, non-terminal job records
	// Tiered executions address each phase under the key a direct
	// submission of that tier would get (see TierKey); approx carries
	// the published phase-1 bytes once the execution is refining.
	approxKey string
	exactKey  string
	approx    []byte
	// budget/deadlineAt are the first submitter's wall-clock allowance;
	// coalesced joiners inherit it (one execution, one deadline).
	// deadlineAt counts from submission, so queue wait spends budget.
	budget     time.Duration
	deadlineAt time.Time
	// trace is the execution's shared event timeline (started, build,
	// per-tier runs with their phase spans, refining); guarded by the
	// service mutex like the rest of the record.
	trace []traceEvent
	// runStart anchors the current run's flight-recorder records — and
	// its phase spans — to the wall clock. Touched only by the worker
	// goroutine that owns the execution.
	runStart time.Time
}

// execProgress is an execution's engine observer. It keeps the
// progress gauge the execution's job records report, summed over the
// execution's runs (a tiered job runs the approx phase, then the exact
// phase), and forwards every round record unchanged to the flight
// recorder when one is armed. The gauge is safe to read from any
// goroutine; everything else belongs to the worker goroutine that owns
// the execution.
type execProgress struct {
	congest.Progress
	recorder *congest.FlightRecorder // nil when disabled
	// prevRounds and prevDelivered are the gauge's totals when the
	// current run started.
	prevRounds    int
	prevDelivered int64
}

// ObserveRound forwards rec to the flight recorder and advances the
// gauge to the previous runs' totals plus this run's.
func (p *execProgress) ObserveRound(rec congest.RoundRecord) {
	if p.recorder != nil {
		p.recorder.ObserveRound(rec)
	}
	rec.Round += p.prevRounds
	rec.TotalDelivered += p.prevDelivered
	p.Progress.ObserveRound(rec)
}

// startRun marks the start of the execution's next run: the gauge keeps
// counting from its current totals, and the flight recorder is emptied
// so its tail describes this run alone.
func (p *execProgress) startRun() {
	p.prevRounds, p.prevDelivered = p.Round(), p.Delivered()
	if p.recorder != nil {
		p.recorder.Reset()
	}
}

// JobView is an immutable snapshot of a job for API responses.
type JobView struct {
	ID       string `json:"job_id"`
	Key      string `json:"key"`
	Tier     string `json:"tier,omitempty"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Rounds and Delivered report live protocol progress while the job
	// runs and final totals once it is done.
	Rounds    int64 `json:"rounds"`
	Delivered int64 `json:"delivered"`
	// Replica names the service instance that owns this job record
	// (Options.Replica); empty on single-instance deployments. A
	// gateway rewrites the job ID it hands clients but leaves this
	// field as the upstream's identity.
	Replica string `json:"replica,omitempty"`
	// SetupNs is the wall time the completed run spent in engine setup
	// (congest.Stats.SetupNanos): a cold worker pays slab allocation
	// here, a warm one near nothing, so the field makes per-worker
	// engine reuse observable. Zero for cache hits and unfinished jobs.
	// Incidental timing, deliberately kept out of the cacheable Result.
	SetupNs int64  `json:"setup_ns,omitempty"`
	Error   string `json:"error,omitempty"`
	// Approx is the tiered tier's published approximate-phase result:
	// populated from the moment the job enters state "refining" and
	// retained through done, canceled, drained, and deadline outcomes.
	Approx json.RawMessage `json:"approx,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// DegradedFrom is the originally requested tier when overload made
	// the service serve this job at a cheaper one (queue-pressure
	// degradation or admission downtier); Tier is the tier actually
	// served. Empty when the job ran as requested.
	DegradedFrom string `json:"degraded_from,omitempty"`
	// RetryAfterMS, on a deadline outcome, hints how long a client
	// should wait before resubmitting (2× the job's budget: enough for
	// the backlog that ate the budget to drain, cheap to recompute
	// against the warm cache).
	RetryAfterMS int64     `json:"retry_after_ms,omitempty"`
	CreatedAt    time.Time `json:"created_at"`
}

// Metrics is a point-in-time snapshot of service health.
type Metrics struct {
	UptimeSec     float64 `json:"uptime_sec"`
	PoolSize      int     `json:"pool_size"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Running       int     `json:"running"`
	// Refining counts executions that have published an approximate
	// answer and are still computing the exact one.
	Refining  int   `json:"refining"`
	Submitted int64 `json:"jobs_submitted"`
	Completed int64 `json:"jobs_completed"`
	Failed    int64 `json:"jobs_failed"`
	Canceled  int64 `json:"jobs_canceled"`
	// Deadlined counts jobs killed by their wall-clock deadline or
	// round budget; Degraded counts submissions served below their
	// requested tier by queue pressure; Shed counts submissions turned
	// away with ErrBusy (503) on a full queue.
	Deadlined int64 `json:"jobs_deadline"`
	Degraded  int64 `json:"jobs_degraded"`
	Shed      int64 `json:"jobs_shed"`
	// AdmissionChecks counts bracket pre-passes run (or served from
	// cache) for admission; AdmissionRejected the resulting 429s;
	// AdmissionDowntiered over-ceiling submissions served at approx.
	AdmissionChecks     int64   `json:"admission_checks"`
	AdmissionRejected   int64   `json:"admission_rejected"`
	AdmissionDowntiered int64   `json:"admission_downtiered"`
	Coalesced           int64   `json:"jobs_coalesced"`
	CacheHits           int64   `json:"cache_hits"`
	CacheMisses         int64   `json:"cache_misses"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
	CacheEntries        int     `json:"cache_entries"`
	// RoundsTotal sums the CONGEST rounds of completed jobs;
	// RoundsPerSec divides it by the pool's cumulative busy time.
	// LiveRounds adds the current gauges of running jobs.
	RoundsTotal  int64   `json:"rounds_total"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	LiveRounds   int64   `json:"live_rounds"`
	// Build identifies the running binary (version, commit, toolchain).
	Build BuildInfo `json:"build"`
	// PhaseRounds and PhaseMessages aggregate completed runs' leaf
	// phase spans by phase group (bfs, mst, respect, pack, certify,
	// level, bracket, ...): CONGEST rounds and delivered messages spent
	// in each protocol phase since the service started.
	PhaseRounds   map[string]int64 `json:"phase_rounds,omitempty"`
	PhaseMessages map[string]int64 `json:"phase_messages,omitempty"`
	// TierLatency holds one job-latency histogram per serving tier,
	// observed at every job that reaches state done (cache hits
	// included, which is what puts mass in the sub-millisecond
	// buckets).
	TierLatency map[string]HistogramSnapshot `json:"tier_latency,omitempty"`
}

// Service is the concurrent min-cut job runner. Create with New,
// submit with Submit, stop with Shutdown.
type Service struct {
	opts  Options
	cache *cache
	queue chan *exec
	start time.Time
	log   *slog.Logger
	durs  map[string]*Histogram // per-tier job latency, keyed by tier

	mu            sync.Mutex
	jobs          map[string]*job
	inflight      map[string]*exec // canonical key -> queued/running execution
	retired       []string         // finished job IDs, oldest first, bounded by JobRetention
	phaseRounds   map[string]int64 // per phase group, completed runs only
	phaseMessages map[string]int64
	closed        bool
	nextID        int64

	wg        sync.WaitGroup
	baseCtx   context.Context
	cancelAll context.CancelFunc

	running       atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	canceled      atomic.Int64
	deadlined     atomic.Int64
	degraded      atomic.Int64
	shed          atomic.Int64
	admChecks     atomic.Int64
	admRejected   atomic.Int64
	admDowntiered atomic.Int64
	coalesced     atomic.Int64
	submitted     atomic.Int64
	rounds        atomic.Int64
	busyNanos     atomic.Int64
}

// New starts a Service with opts.PoolSize worker goroutines.
func New(opts Options) *Service {
	o := opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	logger := o.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		opts:          o,
		cache:         newCache(o.CacheEntries),
		queue:         make(chan *exec, o.QueueDepth),
		start:         time.Now(),
		log:           logger,
		durs:          make(map[string]*Histogram, 5),
		jobs:          make(map[string]*job),
		inflight:      make(map[string]*exec),
		phaseRounds:   make(map[string]int64),
		phaseMessages: make(map[string]int64),
		baseCtx:       ctx,
		cancelAll:     cancel,
	}
	for _, tier := range []string{TierBracket, TierApprox, TierExact, TierRespect, TierTiered} {
		s.durs[tier] = NewHistogram()
	}
	s.log.Info("service started", "pool_size", o.PoolSize, "queue_depth", o.QueueDepth,
		"version", ReadBuild().Version, "commit", ReadBuild().Commit)
	s.wg.Add(o.PoolSize)
	for i := 0; i < o.PoolSize; i++ {
		go s.worker()
	}
	return s
}

// Submit validates req and returns a job snapshot. Identical canonical
// requests are served from the result cache (state done, no protocol
// run) or coalesced onto the already in-flight execution for that key.
// A coalesced submission still gets its own job ID: every submitter
// polls and cancels an independent record, and only the shared
// execution (one protocol run, one cache fill) is deduplicated.
//
// A tiered request is served from the cache when its exact phase key
// is cached (the exact answer subsumes the approximate one; the cached
// approx-phase bytes ride along when present), and a coalesced tiered
// submission joining a refining execution receives the already
// published approximate payload immediately.
//
// Under overload three mechanisms trigger before a run is queued,
// in order: queue-pressure degradation re-tiers the request at the
// DegradeOptions cap (the cache and in-flight coalescing are retried
// at the cheaper tier); admission control runs the bracket pre-pass on
// exact/tiered requests and rejects (AdmissionError, HTTP 429) or
// down-tiers the ones whose extrapolated poly(λ) cost exceeds the
// ceiling; a still-full queue sheds the submission with ErrBusy.
func (s *Service) Submit(req JobRequest) (JobView, error) {
	canon, key, err := CanonicalRequest(req, s.opts.Limits)
	if err != nil {
		return JobView{}, err
	}
	budget := time.Duration(req.DeadlineMS) * time.Millisecond
	if budget == 0 {
		budget = s.opts.DefaultDeadline
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobView{}, ErrClosed
	}
	if v, ok := s.serveLocked(canon, key, budget, "", true); ok {
		s.mu.Unlock()
		return v, nil
	}
	degradedFrom := ""
	if tcap := s.degradeCap(); tcap != "" && tierRank[canon.Tier] > tierRank[tcap] {
		if c2, k2, err2 := reTier(canon, tcap, s.opts.Limits); err2 == nil {
			degradedFrom, canon, key = canon.Tier, c2, k2
			s.degraded.Add(1)
			s.log.Info("degraded submission", "from", degradedFrom, "to", canon.Tier,
				"queue_depth", len(s.queue), "queue_capacity", cap(s.queue))
			if v, ok := s.serveLocked(canon, key, budget, degradedFrom, false); ok {
				s.mu.Unlock()
				return v, nil
			}
		}
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		// Deliberately not counted in jobs_submitted: the counter
		// tracks accepted work only (bad specs and 503s are excluded).
		s.shed.Add(1)
		s.log.Warn("shed submission: queue full", "tier", canon.Tier, "depth", cap(s.queue))
		return JobView{}, fmt.Errorf("%w (depth %d)", ErrBusy, cap(s.queue))
	}
	s.mu.Unlock()

	// Admission runs without the lock: the bracket pre-pass is a real
	// (if ~100-round) protocol run on the submitter's goroutine.
	if s.opts.Admission.CeilingRounds > 0 && (canon.Tier == TierExact || canon.Tier == TierTiered) {
		if est, ok := s.admitEstimate(canon); ok && est.EstRounds > est.Ceiling {
			if !s.opts.Admission.Downtier {
				s.admRejected.Add(1)
				s.log.Warn("admission rejected", "tier", canon.Tier,
					"est_rounds", est.EstRounds, "ceiling", est.Ceiling,
					"lambda_lo", est.LambdaLo, "lambda_hi", est.LambdaHi)
				return JobView{}, &AdmissionError{Est: est}
			}
			if c2, k2, err2 := reTier(canon, TierApprox, s.opts.Limits); err2 == nil {
				if degradedFrom == "" {
					degradedFrom = canon.Tier
				}
				canon, key = c2, k2
				s.admDowntiered.Add(1)
				s.log.Info("admission downtiered", "to", TierApprox,
					"est_rounds", est.EstRounds, "ceiling", est.Ceiling)
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	// The lock was dropped for admission: the cache or an in-flight
	// execution may satisfy the (possibly re-tiered) request now.
	if v, ok := s.serveLocked(canon, key, budget, degradedFrom, false); ok {
		return v, nil
	}
	if len(s.queue) == cap(s.queue) {
		s.shed.Add(1)
		return JobView{}, fmt.Errorf("%w (depth %d)", ErrBusy, cap(s.queue))
	}
	approxKey, exactKey, err := phaseKeys(canon, s.opts.Limits)
	if err != nil {
		return JobView{}, err
	}
	s.submitted.Add(1)
	e := &exec{
		key: key, req: canon, tier: canon.Tier, state: StateQueued,
		progress: &execProgress{}, approxKey: approxKey, exactKey: exactKey,
		budget: budget,
	}
	if budget > 0 {
		e.deadlineAt = time.Now().Add(budget)
	}
	j := s.newJobLocked(key, canon.Tier)
	j.state = StateQueued
	j.progress = e.progress
	j.exec = e
	j.budget = budget
	markDegraded(j, degradedFrom)
	e.waiters = []*job{j}
	s.inflight[key] = e
	s.queue <- e // cannot block: sends only happen under mu with space checked
	return s.viewLocked(j), nil
}

// phaseKeys derives the tiered tier's phase cache keys; both empty for
// other tiers. Neither derivation can fail after CanonicalRequest
// succeeded on canon.
func phaseKeys(canon JobRequest, limits Limits) (approxKey, exactKey string, err error) {
	if canon.Tier != TierTiered {
		return "", "", nil
	}
	if approxKey, err = TierKey(canon, TierApprox, limits); err != nil {
		return "", "", err
	}
	if exactKey, err = TierKey(canon, TierExact, limits); err != nil {
		return "", "", err
	}
	return approxKey, exactKey, nil
}

// reTier re-canonicalizes an already-canonical request at a cheaper
// tier (degradation or admission downtier). Tier-specific defaults
// (epsilon) apply as if the request had been submitted there.
func reTier(canon JobRequest, tier string, limits Limits) (JobRequest, string, error) {
	c := canon
	c.Mode = ""
	c.Tier = tier
	return CanonicalRequest(c, limits)
}

// degradeCap returns the most expensive tier currently served for new
// work under queue-pressure degradation, or "" when every tier is
// served (degradation off or pressure below every threshold).
func (s *Service) degradeCap() string {
	d := s.opts.Degrade
	p := float64(len(s.queue)) / float64(cap(s.queue))
	switch {
	case d.BracketAt > 0 && p >= d.BracketAt:
		return TierBracket
	case d.ApproxAt > 0 && p >= d.ApproxAt:
		return TierApprox
	case d.TieredAt > 0 && p >= d.TieredAt:
		return TierTiered
	}
	return ""
}

// serveLocked tries to satisfy a submission at (canon, key) without a
// new execution: from the result cache, or by coalescing onto the
// in-flight execution for the key. count selects whether this lookup
// moves the cache hit/miss counters — a submission records exactly one
// cache-effectiveness signal (its first lookup), not one per
// degradation or admission retry. Caller holds mu.
func (s *Service) serveLocked(canon JobRequest, key string, budget time.Duration, degradedFrom string, count bool) (JobView, bool) {
	tiered := canon.Tier == TierTiered
	approxKey, exactKey, err := phaseKeys(canon, s.opts.Limits)
	if err != nil {
		return JobView{}, false
	}
	lookup := key
	if tiered {
		lookup = exactKey
	}
	if data, ok := s.cache.get(lookup, count); ok {
		s.submitted.Add(1)
		j := s.newJobLocked(key, canon.Tier)
		j.state = StateDone
		j.cacheHit = true
		j.result = data
		j.finished = j.created
		markDegraded(j, degradedFrom)
		if tiered {
			// Uncounted: the submit-path cache signal was the exact key.
			j.approx, _ = s.cache.get(approxKey, false)
		}
		j.trace = append(j.trace, traceEvent{
			name: "done", cat: "lifecycle", at: j.finished,
			args: map[string]any{"cache_hit": true},
		})
		s.durs[canon.Tier].Observe(0) // a cache hit is a zero-latency done
		s.retireLocked(j)
		return s.viewLocked(j), true
	}
	if e, ok := s.inflight[key]; ok {
		s.submitted.Add(1)
		s.coalesced.Add(1)
		j := s.newJobLocked(key, canon.Tier)
		j.state = e.state
		j.approx = e.approx
		j.progress = e.progress
		j.exec = e
		j.budget = e.budget // inherited: one execution, one deadline
		markDegraded(j, degradedFrom)
		j.trace = append(j.trace, traceEvent{
			name: "coalesced", cat: "lifecycle", at: time.Now(),
			args: map[string]any{"key": key},
		})
		e.waiters = append(e.waiters, j)
		return s.viewLocked(j), true
	}
	return JobView{}, false
}

// admitEstimate prices an exact/tiered submission via the bracket
// pre-pass: λ ∈ [lo, hi] in ~100 rounds (distmincut.BracketMinCut),
// with the result cached under the bracket tier key — byte-identical
// to a direct bracket submission, so pre-passes and bracket traffic
// share cache entries in both directions. Reports ok=false to admit
// unconditionally (fail open) when the pre-pass cannot price the
// request: the real run will surface the real error, and admission
// must never be the component that takes a healthy request down.
func (s *Service) admitEstimate(canon JobRequest) (est CostEstimate, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			est, ok = CostEstimate{}, false
		}
	}()
	s.admChecks.Add(1)
	chaos.Inject(chaos.SiteAdmission)
	bracketKey, err := TierKey(canon, TierBracket, s.opts.Limits)
	if err != nil {
		return CostEstimate{}, false
	}
	data, hit := s.cache.get(bracketKey, false)
	if !hit {
		g, err := Build(canon.Graph)
		if err != nil {
			return CostEstimate{}, false
		}
		br, err := distmincut.BracketMinCutContext(s.baseCtx, g, &distmincut.Options{Seed: canon.Seed})
		if err != nil {
			return CostEstimate{}, false
		}
		if data, err = encodeBracket(bracketKey, g.N(), g.M(), br); err != nil {
			return CostEstimate{}, false
		}
		s.cache.put(bracketKey, data)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return CostEstimate{}, false
	}
	est = CostEstimate{
		LambdaLo:      r.Lo,
		LambdaHi:      r.Hi,
		BracketRounds: r.Rounds,
		Ceiling:       s.opts.Admission.CeilingRounds,
		HintTier:      TierApprox,
	}
	// (√n + bracket rounds) · λhi², in float64 first so a pathological
	// bracket cannot overflow the int64 estimate.
	cost := (math.Sqrt(float64(r.N)) + float64(r.Rounds)) * float64(r.Hi) * float64(r.Hi)
	if cost > math.MaxInt64/2 {
		cost = math.MaxInt64 / 2
	}
	est.EstRounds = int64(cost)
	return est, true
}

// retireLocked marks j finished for retention accounting and drops the
// oldest finished records beyond Options.JobRetention, so the job map
// cannot grow without bound under sustained traffic. Caller holds mu.
func (s *Service) retireLocked(j *job) {
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.opts.JobRetention {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// newJobLocked allocates and registers a job record. Caller holds mu.
func (s *Service) newJobLocked(key, tier string) *job {
	s.nextID++
	j := &job{
		id:      "j" + strconv.FormatInt(s.nextID, 10),
		key:     key,
		tier:    tier,
		created: time.Now(),
	}
	j.trace = append(j.trace, traceEvent{
		name: "queued", cat: "lifecycle", at: j.created,
		args: map[string]any{"tier": tier, "key": key},
	})
	s.jobs[j.id] = j
	return j
}

// markDegraded records a degradation (queue pressure or admission
// downtier) on the job record and its timeline. No-op for an empty
// source tier. Caller holds mu.
func markDegraded(j *job, from string) {
	if from == "" {
		return
	}
	j.degradedFrom = from
	j.trace = append(j.trace, traceEvent{
		name: "degraded", cat: "lifecycle", at: time.Now(),
		args: map[string]any{"from": from, "to": j.tier},
	})
}

// Job returns a snapshot of the job with the given ID.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// Cancel cancels a queued or running job. Canceling a finished job is
// a no-op; unknown IDs report false. A canceled job only detaches the
// caller's record from the shared execution: other submitters
// coalesced onto the same key keep their jobs and still receive the
// result. The execution itself is canceled (queued: dropped by the
// worker; running: context-aborted) only when its last waiter
// detaches.
func (s *Service) Cancel(id string) (JobView, bool) {
	chaos.Inject(chaos.SiteCancel)
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	e := j.exec
	if e == nil { // already terminal (or a cache-hit record)
		return s.viewLocked(j), true
	}
	j.state = StateCanceled
	j.err = "canceled by request"
	j.finished = time.Now()
	j.exec = nil
	s.canceled.Add(1)
	s.retireLocked(j)
	for i, w := range e.waiters {
		if w == j {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			break
		}
	}
	if len(e.waiters) == 0 {
		// Last reference dropped: nobody wants this run anymore. A
		// later identical submission starts a fresh execution.
		delete(s.inflight, e.key)
		if e.cancel != nil {
			e.cancel() // running: the worker observes the aborted context
		}
		// Still queued: the worker pops it, sees no waiters, drops it.
	}
	return s.viewLocked(j), true
}

// ResultByKey returns the cached canonical result bytes for a key.
func (s *Service) ResultByKey(key string) ([]byte, bool) {
	return s.cache.get(key, false)
}

// viewLocked snapshots j. Caller holds mu.
func (s *Service) viewLocked(j *job) JobView {
	v := JobView{
		ID:        j.id,
		Key:       j.key,
		Tier:      j.tier,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Error:     j.err,
		Replica:   s.opts.Replica,
		CreatedAt: j.created,
	}
	if j.progress != nil {
		v.Rounds = int64(j.progress.Round())
		v.Delivered = j.progress.Delivered()
	}
	v.SetupNs = j.setupNs
	if j.approx != nil {
		// Published when the job entered refining; survives cancel,
		// drain, and deadline so the submitter keeps the fast answer
		// either way.
		v.Approx = json.RawMessage(j.approx)
	}
	if j.state == StateDone {
		v.Result = json.RawMessage(j.result)
	}
	v.DegradedFrom = j.degradedFrom
	if j.state == StateDeadline {
		if j.budget > 0 {
			v.RetryAfterMS = 2 * j.budget.Milliseconds()
		} else {
			v.RetryAfterMS = 1000 // round budget without a wall clock: a flat hint
		}
	}
	return v
}

// Metrics snapshots service health.
func (s *Service) Metrics() Metrics {
	hits, misses, entries := s.cache.stats()
	m := Metrics{
		UptimeSec:           time.Since(s.start).Seconds(),
		PoolSize:            s.opts.PoolSize,
		QueueDepth:          len(s.queue),
		QueueCapacity:       cap(s.queue),
		Running:             int(s.running.Load()),
		Submitted:           s.submitted.Load(),
		Completed:           s.completed.Load(),
		Failed:              s.failed.Load(),
		Canceled:            s.canceled.Load(),
		Deadlined:           s.deadlined.Load(),
		Degraded:            s.degraded.Load(),
		Shed:                s.shed.Load(),
		AdmissionChecks:     s.admChecks.Load(),
		AdmissionRejected:   s.admRejected.Load(),
		AdmissionDowntiered: s.admDowntiered.Load(),
		Coalesced:           s.coalesced.Load(),
		CacheHits:           hits,
		CacheMisses:         misses,
		CacheEntries:        entries,
		RoundsTotal:         s.rounds.Load(),
		Build:               ReadBuild(),
		TierLatency:         make(map[string]HistogramSnapshot, len(s.durs)),
	}
	for tier, h := range s.durs {
		m.TierLatency[tier] = h.Snapshot()
	}
	if total := hits + misses; total > 0 {
		m.CacheHitRate = float64(hits) / float64(total)
	}
	if busy := s.busyNanos.Load(); busy > 0 {
		m.RoundsPerSec = float64(m.RoundsTotal) / (float64(busy) / 1e9)
	}
	s.mu.Lock()
	for _, e := range s.inflight {
		if e.state == StateRunning || e.state == StateRefining {
			m.LiveRounds += int64(e.progress.Round())
		}
		if e.state == StateRefining {
			m.Refining++
		}
	}
	if len(s.phaseRounds) > 0 {
		m.PhaseRounds = make(map[string]int64, len(s.phaseRounds))
		m.PhaseMessages = make(map[string]int64, len(s.phaseMessages))
		for k, v := range s.phaseRounds {
			m.PhaseRounds[k] = v
		}
		for k, v := range s.phaseMessages {
			m.PhaseMessages[k] = v
		}
	}
	s.mu.Unlock()
	return m
}

// Ready reports whether the service is accepting new submissions, with
// a machine-readable reason when it is not ("draining" once a drain has
// begun, "queue full" while the queue is at 100% fill). Liveness and
// readiness are distinct: a draining instance is alive — it answers
// polls and finishes running jobs — but not ready, which is the signal
// a gateway uses to stop routing new work to it.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, "draining"
	}
	if len(s.queue) == cap(s.queue) {
		return false, "queue full"
	}
	return true, ""
}

// Replica returns this instance's configured replica identity
// (Options.Replica); empty on single-instance deployments.
func (s *Service) Replica() string { return s.opts.Replica }

// BeginDrain flips the service into the draining state without waiting:
// Ready() reports false, Submit returns ErrClosed, and queued plus
// running jobs keep executing. Idempotent. It is the first half of
// Shutdown, split out so a server can stop accepting work while its
// HTTP listener stays up — a gateway observes readiness go false,
// drains routes away, and clients keep polling in-flight jobs until
// Shutdown completes the drain.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue) // safe: sends happen only under mu with closed checked
	s.mu.Unlock()
	s.log.Info("draining", "running", s.running.Load())
	chaos.Inject(chaos.SiteDrain)
}

// Shutdown drains the service: no new submissions are accepted, queued
// and running jobs are given until ctx is done to finish, then every
// remaining run is canceled. Always returns after the pool has exited;
// the error is ctx's if the deadline forced cancellation. Callable
// after BeginDrain (it completes the drain) and idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.BeginDrain()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelAll()
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// worker executes queued executions until the queue closes. Each
// worker owns one warm, reusable CONGEST engine: the engine keeps its
// slabs and port tables across jobs, so after the worker's first (cold)
// run every same-scale job skips nearly all engine setup (observable as
// JobView.SetupNs).
func (s *Service) worker() {
	defer s.wg.Done()
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	for e := range s.queue {
		s.runExec(eng, e)
		// Warm while busy, released when idle: an engine between jobs
		// pins the last job's graph (via its node adjacency slices)
		// until the next full reinit, so when no work is queued the
		// worker returns its slabs to the process-wide pools — the
		// next job re-acquires them without page faults, and an idle
		// pool holds no graph memory.
		if len(s.queue) == 0 {
			eng.Close()
		}
	}
}

// runExec runs one execution end to end and finalizes every job record
// still attached to it.
func (s *Service) runExec(eng *congest.Engine, e *exec) {
	s.mu.Lock()
	if len(e.waiters) == 0 { // every submitter canceled while queued
		s.mu.Unlock()
		return
	}
	// The deadline context derives from baseCtx, so a drain's cancelAll
	// still kills a deadline-bearing run: the deadline can only shorten
	// a job's life, never stall the drain.
	ctx, cancel := context.WithCancel(s.baseCtx)
	if !e.deadlineAt.IsZero() {
		cancel()
		ctx, cancel = context.WithDeadline(s.baseCtx, e.deadlineAt)
	}
	e.state = StateRunning
	e.cancel = cancel
	if s.opts.FlightRounds >= 0 {
		e.progress.recorder = congest.NewFlightRecorder(s.opts.FlightRounds)
	}
	started := time.Now()
	e.trace = append(e.trace, traceEvent{
		name: "started", cat: "lifecycle", at: started,
		args: map[string]any{"tier": e.tier},
	})
	for _, j := range e.waiters {
		j.state = StateRunning
		j.started = started
	}
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	defer cancel()

	res, setupNs, err := s.executeSafe(ctx, eng, e)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[e.key] == e {
		delete(s.inflight, e.key)
	}
	now := time.Now()
	// finalize moves every attached record to its terminal state,
	// merging the execution's shared timeline plus the given trailing
	// events (terminal instant first, so a flight-recorder tail renders
	// after it) into each job's permanent trace.
	finalize := func(state State, errText string, tailEvents []traceEvent) {
		for _, j := range e.waiters {
			j.state = state
			j.err = errText
			j.finished = now
			j.exec = nil
			j.trace = append(j.trace, e.trace...)
			j.trace = append(j.trace, traceEvent{
				name: string(state), cat: "lifecycle", at: now,
				args: map[string]any{"rounds": e.progress.Round(), "delivered": e.progress.Delivered()},
			})
			j.trace = append(j.trace, tailEvents...)
			s.retireLocked(j)
		}
	}
	switch {
	case err == nil:
		if e.tier != TierTiered {
			// Tiered results live under their phase keys only (the
			// execution cached both phases as it produced them); caching
			// the exact bytes under the tiered key too would serve a
			// result whose self-reported key differs from the lookup key.
			s.cache.put(e.key, res)
		}
		s.completed.Add(1)
		s.rounds.Add(int64(e.progress.Round()))
		s.busyNanos.Add(now.Sub(started).Nanoseconds())
		finalize(StateDone, "", nil)
		for _, j := range e.waiters {
			j.result = res
			j.setupNs = setupNs
			s.durs[e.tier].Observe(now.Sub(j.created))
		}
		s.log.Debug("job done", "tier", e.tier, "key", e.key,
			"rounds", e.progress.Round(), "elapsed", now.Sub(started))
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, congest.ErrBudgetExceeded):
		// Wall-clock deadline or round budget: terminal StateDeadline.
		// The progress gauge and any published approx payload stay on
		// the records — partial progress is the outcome, not an error —
		// and each trace ends with the flight recorder's last rounds.
		s.deadlined.Add(int64(len(e.waiters)))
		var tail []traceEvent
		if rec := e.progress.recorder; rec != nil {
			tail = flightEvents(e.runStart, rec.Tail())
		}
		finalize(StateDeadline, err.Error(), tail)
		s.log.Warn("job deadline", "tier", e.tier, "key", e.key,
			"rounds", e.progress.Round(), "err", err)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(int64(len(e.waiters)))
		finalize(StateCanceled, err.Error(), nil)
		s.log.Info("job canceled", "tier", e.tier, "key", e.key)
	default:
		s.failed.Add(1)
		finalize(StateFailed, err.Error(), nil)
		s.log.Warn("job failed", "tier", e.tier, "key", e.key, "err", err)
	}
	e.waiters = nil
}

// executeSafe is execute behind a panic barrier: the engine converts
// node-program panics to PanicError itself, but a panic anywhere else
// (graph construction on a spec a validation gap let through, result
// encoding) must fail the one job that triggered it, not take down the
// whole process from a worker goroutine.
func (s *Service) executeSafe(ctx context.Context, eng *congest.Engine, e *exec) (res []byte, setupNs int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, setupNs, err = nil, 0, fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	res, setupNs, err = s.execute(ctx, eng, e)
	// Finalization fault point: still behind this barrier, so an
	// injected panic here fails the one job, never the process.
	chaos.Inject(chaos.SiteWorkerFinalize)
	return res, setupNs, err
}

// execute builds the graph and runs the requested tier on the worker's
// warm engine, returning canonical result bytes plus the engine setup
// time of the run (for JobView.SetupNs).
func (s *Service) execute(ctx context.Context, eng *congest.Engine, e *exec) ([]byte, int64, error) {
	// Fast-fail before the (possibly large) graph build: after a
	// deadline-forced shutdown the queue may still hold jobs, and the
	// drain budget must not be spent constructing graphs that would
	// only be canceled at the first round boundary.
	if err := ctx.Err(); err != nil {
		// A tiered job killed before it could run — deadline spent in
		// the queue, or a drain — still publishes its approx phase when
		// the cache has it: the same fast-answer guarantee a cancel
		// mid-refinement gives, at zero protocol cost.
		if e.tier == TierTiered {
			if approx, ok := s.cache.get(e.approxKey, false); ok {
				s.publishRefining(e, approx)
			}
		}
		return nil, 0, err
	}
	chaos.Inject(chaos.SiteWorkerExecute)
	t0 := time.Now()
	g, err := Build(e.req.Graph)
	s.execTrace(e, traceEvent{
		name: "build", cat: "phase", at: t0, dur: time.Since(t0),
		args: map[string]any{"n": e.req.Graph.N, "m": len(e.req.Graph.Edges)},
	})
	if err != nil {
		return nil, 0, err
	}
	if e.tier == TierTiered {
		return s.executeTiered(ctx, eng, e, g)
	}
	return s.runTier(ctx, eng, e, g, e.tier, e.key)
}

// executeTiered runs the approximation-first flow: the (1+ε) phase is
// computed (or taken from the cache), cached under its own tier key,
// and published to every waiter as state "refining"; then the exact
// phase runs the genuine exact pipeline — never a re-encoding of the
// approx phase, so the bytes cached under the exact tier key are
// byte-identical to a direct exact submission's — and becomes the
// job's final result.
func (s *Service) executeTiered(ctx context.Context, eng *congest.Engine, e *exec, g *graph.Graph) ([]byte, int64, error) {
	var setupNs int64
	approx, ok := s.cache.get(e.approxKey, true)
	if !ok {
		var err error
		var ns int64
		approx, ns, err = s.runTier(ctx, eng, e, g, TierApprox, e.approxKey)
		if err != nil {
			return nil, 0, err
		}
		setupNs += ns
		s.cache.put(e.approxKey, approx)
	}
	s.publishRefining(e, approx)
	exact, ok := s.cache.get(e.exactKey, true)
	if !ok {
		var err error
		var ns int64
		exact, ns, err = s.runTier(ctx, eng, e, g, TierExact, e.exactKey)
		if err != nil {
			return nil, 0, err
		}
		setupNs += ns
		s.cache.put(e.exactKey, exact)
	}
	return exact, setupNs, nil
}

// publishRefining moves a tiered execution into the refining state and
// hands the approximate payload to every attached job record.
func (s *Service) publishRefining(e *exec, approx []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.state = StateRefining
	e.approx = approx
	e.trace = append(e.trace, traceEvent{
		name: "refining", cat: "lifecycle", at: time.Now(),
		args: map[string]any{"approx_bytes": len(approx)},
	})
	for _, j := range e.waiters {
		j.state = StateRefining
		j.approx = approx
	}
}

// execTrace appends one event to the execution's shared timeline.
func (s *Service) execTrace(e *exec, ev traceEvent) {
	s.mu.Lock()
	e.trace = append(e.trace, ev)
	s.mu.Unlock()
}

// recordRun appends one tier run's phase events to the execution's
// timeline — the run:<tier> umbrella span, the engine setup span, and
// the phase-span tree reconstructed from the run's marks — and folds
// the leaf spans into the service-wide per-phase counters. A run
// killed before it produced stats (deadline, budget, cancel) still
// gets its umbrella span, so partial traces show where the wall time
// went even without protocol marks.
func (s *Service) recordRun(e *exec, tier string, t0 time.Time, stats *congest.Stats) {
	evs := make([]traceEvent, 0, 8)
	evs = append(evs, traceEvent{
		name: "run:" + tier, cat: "phase", at: t0, dur: time.Since(t0),
	})
	var spans []*distmincut.Span
	if stats != nil {
		evs = append(evs, traceEvent{
			name: "setup", cat: "phase", at: t0, dur: time.Duration(stats.SetupNanos),
		})
		spans = distmincut.Spans(stats)
		evs = spanEvents(t0, spans, evs)
	}
	s.mu.Lock()
	e.trace = append(e.trace, evs...)
	if spans != nil {
		addPhaseTotals(s.phaseRounds, s.phaseMessages, spans)
	}
	s.mu.Unlock()
}

// runTier runs one serving tier's protocol and encodes its canonical
// result bytes under the given key. The run is observed end to end:
// the execution's progress observer (which feeds the flight recorder,
// reset per run) rides along as the engine observer, and the run's
// phase spans land on the timeline via recordRun whether the run
// finishes or aborts.
func (s *Service) runTier(ctx context.Context, eng *congest.Engine, e *exec, g *graph.Graph, tier, key string) ([]byte, int64, error) {
	opts := &distmincut.Options{
		Seed:      e.req.Seed,
		Epsilon:   e.req.Epsilon,
		MaxRounds: s.opts.MaxJobRounds,
		Deadline:  e.deadlineAt,
		Engine:    eng,
		Observer:  e.progress,
	}
	e.progress.startRun()
	t0 := time.Now()
	e.runStart = t0
	var stats *congest.Stats
	defer func() { s.recordRun(e, tier, t0, stats) }()
	if tier == TierBracket {
		br, err := distmincut.BracketMinCutContext(ctx, g, opts)
		if err != nil {
			return nil, 0, err
		}
		stats = br.Stats
		data, err := encodeBracket(key, g.N(), g.M(), br)
		if err != nil {
			return nil, 0, err
		}
		return data, br.Stats.SetupNanos, nil
	}
	var res *distmincut.Result
	var err error
	switch tier {
	case TierExact:
		res, err = distmincut.MinCutContext(ctx, g, opts)
	case TierApprox:
		res, err = distmincut.ApproxMinCutContext(ctx, g, opts)
	case TierRespect:
		res, _, err = distmincut.OneRespectingCutContext(ctx, g, opts)
	default:
		return nil, 0, bad("unknown tier %q", tier)
	}
	if err != nil {
		return nil, 0, err
	}
	stats = res.Stats
	data, err := encodeResult(key, tier, g.N(), g.M(), res)
	if err != nil {
		return nil, 0, err
	}
	return data, res.Stats.SetupNanos, nil
}

// sideBits packs a side assignment into the canonical base64 bitset.
func sideBits(side []bool) (string, int) {
	bits := make([]byte, (len(side)+7)/8)
	sideIn := 0
	for i, in := range side {
		if in {
			bits[i/8] |= 1 << (i % 8)
			sideIn++
		}
	}
	return base64.StdEncoding.EncodeToString(bits), sideIn
}

// encodeResult renders the canonical result bytes for the cache. The
// tier doubles as the legacy mode field.
func encodeResult(key, tier string, n, m int, res *distmincut.Result) ([]byte, error) {
	side, sideIn := sideBits(res.Side)
	out := Result{
		Key:         key,
		Mode:        tier,
		Tier:        tier,
		N:           n,
		M:           m,
		Value:       res.Value,
		Exact:       res.Exact,
		BestNode:    int64(res.BestNode),
		TreesPacked: res.TreesPacked,
		Levels:      res.Levels,
		Rounds:      res.Rounds,
		Messages:    res.Messages,
		SideIn:      sideIn,
		Side:        side,
	}
	return json.Marshal(&out)
}

// encodeBracket renders the bracket tier's canonical result bytes: the
// certified witness cut (the minimum weighted degree singleton) as the
// value/side, plus the [lo, hi] bracket on λ and the first disconnected
// sampling level.
func encodeBracket(key string, n, m int, br *distmincut.BracketResult) ([]byte, error) {
	side, sideIn := sideBits(br.Side)
	out := Result{
		Key:      key,
		Mode:     TierBracket,
		Tier:     TierBracket,
		N:        n,
		M:        m,
		Value:    br.Value,
		Lo:       br.Lo,
		Hi:       br.Hi,
		BestNode: int64(br.BestNode),
		Levels:   br.Level,
		Rounds:   br.Rounds,
		Messages: br.Messages,
		SideIn:   sideIn,
		Side:     side,
	}
	return json.Marshal(&out)
}
