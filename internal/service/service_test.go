package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
)

func plantedReq(seed int64) JobRequest {
	return JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: seed},
		Mode:  "exact",
	}
}

func cycleReq(n int) JobRequest {
	return JobRequest{Graph: GraphSpec{Family: "cycle", N: n}, Mode: "respect"}
}

// waitState polls until the job reaches a terminal state and returns
// its final view.
func waitState(t *testing.T, s *Service, id string, want State, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State == want {
			return v
		}
		if v.State == StateDone || v.State == StateFailed || v.State == StateCanceled {
			t.Fatalf("job %s reached %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func shutdown(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestSubmitRunsJobToCompletion(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v, err := s.Submit(plantedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued {
		t.Fatalf("fresh job state %s, want queued", v.State)
	}
	final := waitState(t, s, v.ID, StateDone, 2*time.Minute)
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 || !res.Exact {
		t.Fatalf("planted cut value %d (exact %v), want 2 exact", res.Value, res.Exact)
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Fatalf("degenerate complexity: %+v", res)
	}
	if res.Key != final.Key {
		t.Fatalf("result key %s != job key %s", res.Key, final.Key)
	}
	bits, err := base64.StdEncoding.DecodeString(res.Side)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < res.N; i++ {
		if bits[i/8]&(1<<(i%8)) != 0 {
			n++
		}
	}
	if n != res.SideIn || n == 0 || n == res.N {
		t.Fatalf("side bitset population %d vs side_in %d (n=%d)", n, res.SideIn, res.N)
	}
}

func TestRepeatSubmissionServedFromCache(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	first, err := s.Submit(plantedReq(7))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, first.ID, StateDone, 2*time.Minute)

	second, err := s.Submit(plantedReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("repeat submission state %s cacheHit %v, want done from cache", second.State, second.CacheHit)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit must mint a fresh job record")
	}
	if !bytes.Equal(second.Result, done.Result) {
		t.Fatal("cached bytes differ from computed bytes")
	}
	m := s.Metrics()
	if m.Completed != 1 {
		t.Fatalf("protocol ran %d times, want 1 (second submission must not re-run)", m.Completed)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.CacheHitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", m.CacheHitRate)
	}
}

func TestIdenticalInflightSpecsCoalesce(t *testing.T) {
	// Pool of 1 busy with a slow job keeps the identical submissions
	// queued, so they must coalesce onto one execution — while each
	// submitter still gets an independent job record.
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	slow, err := s.Submit(plantedReq(3))
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Submit(plantedReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == slow.ID {
		t.Fatal("coalesced submission must mint its own job record")
	}
	if again.Key != slow.Key {
		t.Fatalf("coalesced submission changed keys: %s vs %s", again.Key, slow.Key)
	}
	if m := s.Metrics(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
	a := waitState(t, s, slow.ID, StateDone, 2*time.Minute)
	b := waitState(t, s, again.ID, StateDone, 2*time.Minute)
	if !bytes.Equal(a.Result, b.Result) {
		t.Fatal("coalesced jobs received different result bytes")
	}
	// One execution served both records.
	if m := s.Metrics(); m.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (one shared run)", m.Completed)
	}
}

// TestCancelDetachesOnlyCaller: DELETE on one of two coalesced jobs
// must cancel that submitter's record only; the other still receives
// the result from the shared execution.
func TestCancelDetachesOnlyCaller(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	if _, err := s.Submit(plantedReq(40)); err != nil { // occupies the worker
		t.Fatal(err)
	}
	first, err := s.Submit(plantedReq(41))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(plantedReq(41)) // coalesces onto first's execution
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.Cancel(second.ID)
	if !ok || v.State != StateCanceled {
		t.Fatalf("cancel coalesced waiter: ok=%v state=%s", ok, v.State)
	}
	final := waitState(t, s, first.ID, StateDone, 2*time.Minute)
	if len(final.Result) == 0 {
		t.Fatal("surviving waiter got no result")
	}
	if v, _ := s.Job(second.ID); v.State != StateCanceled {
		t.Fatalf("canceled waiter reached %s", v.State)
	}
	if m := s.Metrics(); m.Canceled != 1 || m.Completed != 2 {
		t.Fatalf("canceled/completed = %d/%d, want 1/2", m.Canceled, m.Completed)
	}
}

// TestCancelLastWaiterCancelsRun: once every coalesced submitter has
// canceled, the shared execution itself must be abandoned rather than
// run for nobody.
func TestCancelLastWaiterCancelsRun(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	slow, err := s.Submit(plantedReq(44)) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(plantedReq(45))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(plantedReq(45))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{first.ID, second.ID} {
		if v, ok := s.Cancel(id); !ok || v.State != StateCanceled {
			t.Fatalf("cancel %s: ok=%v state=%v", id, ok, v.State)
		}
	}
	waitState(t, s, slow.ID, StateDone, 2*time.Minute)
	m := s.Metrics()
	if m.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", m.Canceled)
	}
	if m.Completed != 1 {
		t.Fatalf("completed = %d, want 1 — abandoned execution still ran", m.Completed)
	}
}

func TestQueueSaturationReturnsBusy(t *testing.T) {
	s := New(Options{PoolSize: 1, QueueDepth: 2})
	defer shutdown(t, s)
	// A single worker and a depth-2 queue admit at most 3 jobs at
	// once; submitting 8 distinct slow specs back-to-back must accept
	// some and bounce at least one with ErrBusy. (How many land on
	// each side depends on when the worker pops — both outcomes are
	// races this test must tolerate.)
	var ids []string
	busy := 0
	for i := 0; i < 8; i++ {
		v, err := s.Submit(plantedReq(int64(10 + i)))
		switch {
		case err == nil:
			ids = append(ids, v.ID)
		case errors.Is(err, ErrBusy):
			busy++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if busy == 0 {
		t.Fatal("8 instant submissions against a depth-2 queue never saw ErrBusy")
	}
	if len(ids) == 0 {
		t.Fatal("no submission was accepted")
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone, 5*time.Minute)
	}
}

// TestManyConcurrentInflightJobs is the acceptance gate: at least 64
// jobs in flight at once on a bounded pool, submitted from concurrent
// clients, all completing without deadlock (run under -race in CI).
func TestManyConcurrentInflightJobs(t *testing.T) {
	const jobs = 64
	s := New(Options{PoolSize: 4, QueueDepth: jobs})
	defer shutdown(t, s)
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(cycleReq(48 + i)) // distinct specs: no coalescing
			ids[i], errs[i] = v.ID, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		v := waitState(t, s, id, StateDone, 5*time.Minute)
		var res Result
		if err := json.Unmarshal(v.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Value != 2 {
			t.Fatalf("job %d: cycle min cut %d, want 2", i, res.Value)
		}
	}
	m := s.Metrics()
	if m.Completed != jobs {
		t.Fatalf("completed %d, want %d", m.Completed, jobs)
	}
	if m.Running != 0 || m.QueueDepth != 0 {
		t.Fatalf("pool not drained: running %d, queued %d", m.Running, m.QueueDepth)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	slow, err := s.Submit(plantedReq(30))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(plantedReq(31))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.Cancel(queued.ID)
	if !ok || v.State != StateCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, v.State)
	}
	waitState(t, s, slow.ID, StateDone, 2*time.Minute)
	// The canceled job must never run.
	if v, _ := s.Job(queued.ID); v.State != StateCanceled {
		t.Fatalf("canceled job reached %s", v.State)
	}
	if m := s.Metrics(); m.Canceled != 1 || m.Completed != 1 {
		t.Fatalf("canceled/completed = %d/%d, want 1/1", m.Canceled, m.Completed)
	}
}

func TestCancelRunningJobMidProtocol(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	// A job far too big to finish quickly on one worker; cancel as
	// soon as it shows protocol progress.
	big, err := s.Submit(JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 128, N2: 128, K: 3, InP: 0.2, Seed: 5},
		Mode:  "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, _ := s.Job(big.ID)
		if v.State == StateRunning && v.Rounds > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never showed progress (state %s)", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := s.Cancel(big.ID); !ok {
		t.Fatal("cancel returned unknown job")
	}
	deadline = time.Now().Add(time.Minute)
	for {
		v, _ := s.Job(big.ID)
		if v.State == StateCanceled {
			if v.Error == "" {
				t.Fatal("canceled job carries no error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The freed worker must still serve new jobs.
	next, err := s.Submit(cycleReq(64))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, next.ID, StateDone, 2*time.Minute)
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	s := New(Options{PoolSize: 2})
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		v, err := s.Submit(cycleReq(50 + i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	for _, id := range ids {
		if v, _ := s.Job(id); v.State != StateDone {
			t.Fatalf("job %s not drained: %s", id, v.State)
		}
	}
	if _, err := s.Submit(cycleReq(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
}

func TestShutdownDeadlineCancelsRunningJobs(t *testing.T) {
	s := New(Options{PoolSize: 1})
	big, err := s.Submit(JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 128, N2: 128, K: 3, InP: 0.2, Seed: 9},
		Mode:  "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if v, _ := s.Job(big.ID); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline shutdown: %v, want DeadlineExceeded", err)
	}
	if v, _ := s.Job(big.ID); v.State != StateCanceled {
		t.Fatalf("running job after forced shutdown: %s", v.State)
	}
}

// TestDeterministicResultsAcrossInstances: identical canonical specs
// must produce byte-identical cached results in two independent
// service processes — the property that makes the cache
// content-addressable.
func TestDeterministicResultsAcrossInstances(t *testing.T) {
	reqs := []JobRequest{
		plantedReq(7),
		{Graph: GraphSpec{Family: "gnp", N: 64, P: 0.1, Seed: 3}, Mode: "respect"},
		{Graph: GraphSpec{Family: "torus", Rows: 5, Cols: 5}, Mode: "approx", Epsilon: 0.4},
	}
	results := make([][][]byte, 2)
	for inst := 0; inst < 2; inst++ {
		// Different pool shapes must not leak into result bytes.
		s := New(Options{PoolSize: 1 + inst*3})
		for _, req := range reqs {
			v, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, s, v.ID, StateDone, 5*time.Minute)
			data, ok := s.ResultByKey(final.Key)
			if !ok {
				t.Fatalf("no cached bytes for %s", final.Key)
			}
			results[inst] = append(results[inst], data)
		}
		shutdown(t, s)
	}
	for i := range reqs {
		if !bytes.Equal(results[0][i], results[1][i]) {
			t.Fatalf("request %d: result bytes differ across instances:\n%s\n%s",
				i, results[0][i], results[1][i])
		}
	}
}

func TestBadSpecsRejected(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	cases := []JobRequest{
		{},
		{Graph: GraphSpec{Family: "nope", N: 10}},
		{Graph: GraphSpec{Family: "gnp", N: 1, P: 0.5}},
		{Graph: GraphSpec{Family: "gnp", N: 10, P: 1.5}},
		{Graph: GraphSpec{Family: "gnp", N: 10_000_000, P: 0.5}},
		{Graph: GraphSpec{Family: "cycle", N: 64}, Mode: "telepathy"},
		{Graph: GraphSpec{Family: "cycle", N: 64}, Mode: "approx", Epsilon: 2},
		{Graph: GraphSpec{Family: "edges", N: 4, Edges: [][3]int64{{0, 0, 1}}}},
		{Graph: GraphSpec{Family: "edges", N: 4, Edges: [][3]int64{{0, 1, 1}, {1, 0, 5}}}},
		{Graph: GraphSpec{Family: "edges", N: 4, Edges: [][3]int64{{0, 9, 1}}}},
		{Graph: GraphSpec{Family: "edges", N: 4, Edges: [][3]int64{{0, 1, 0}}}},
		{Graph: GraphSpec{Family: "cycle", N: 64, Weights: &WeightSpec{Lo: 0, Hi: 5}}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: got %v, want ErrBadSpec", i, err)
		}
	}
	if m := s.Metrics(); m.Submitted != 0 {
		// Submitted counts only accepted jobs: validation happens
		// before the counter.
		t.Fatalf("rejected specs counted as submissions: %d", m.Submitted)
	}
}

// TestOverflowingSpecsRejected: dimension products must never wrap
// past the size limits. big is half the platform int width, so
// big*big ≡ 0 mod the int range on both 32- and 64-bit targets — the
// exact shape of the grid {rows: 2^32, cols: 2^32} request that used
// to slip through validation and panic graph construction inside a
// worker.
func TestOverflowingSpecsRejected(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	big := 1 << (bits.UintSize / 2)
	half := math.MaxInt/2 + 1 // n1+n2 wraps negative
	cases := []JobRequest{
		{Graph: GraphSpec{Family: "grid", Rows: big, Cols: big}},
		{Graph: GraphSpec{Family: "torus", Rows: big, Cols: big}},
		{Graph: GraphSpec{Family: "cliquepath", Cliques: big, CliqueSize: big, Bridge: 1}},
		{Graph: GraphSpec{Family: "planted", N1: half, N2: half, K: 1, InP: 0.1}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d (%s): got %v, want ErrBadSpec", i, req.Graph.Family, err)
		}
	}
}

// TestWorkerSurvivesPanickingBuild: a panic inside a worker must fail
// the one job that triggered it, never the process. Validation can no
// longer admit a spec whose Build panics, so the test injects one
// directly (graph.Torus panics below 3x3) past the Submit checks.
func TestWorkerSurvivesPanickingBuild(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	s.mu.Lock()
	e := &exec{
		key:      "injected-panic",
		req:      JobRequest{Mode: "exact", Seed: 1, Graph: GraphSpec{Family: "torus", Rows: 2, Cols: 2}},
		state:    StateQueued,
		progress: &execProgress{},
	}
	j := s.newJobLocked(e.key, TierExact)
	j.state = StateQueued
	j.progress = e.progress
	j.exec = e
	e.waiters = []*job{j}
	s.inflight[e.key] = e
	s.queue <- e
	s.mu.Unlock()

	deadline := time.Now().Add(time.Minute)
	for {
		v, ok := s.Job(j.id)
		if !ok {
			t.Fatal("injected job disappeared")
		}
		if v.State == StateFailed {
			if !strings.Contains(v.Error, "panicked") {
				t.Fatalf("failed job error %q does not report the panic", v.Error)
			}
			break
		}
		if v.State == StateDone || v.State == StateCanceled {
			t.Fatalf("injected job reached %s", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("injected job stuck in %s", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m := s.Metrics(); m.Failed != 1 {
		t.Fatalf("failed = %d, want 1", m.Failed)
	}
	// The worker that recovered must still serve jobs.
	next, err := s.Submit(cycleReq(32))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, next.ID, StateDone, 2*time.Minute)
}

func TestCanonicalizationCollapsesEquivalentRequests(t *testing.T) {
	limits := Limits{}
	// Field noise a family does not consume must not split the key.
	a, ka, err := CanonicalRequest(JobRequest{
		Graph: GraphSpec{Family: "cycle", N: 64, P: 0.7, Dim: 9, Seed: 123},
	}, limits)
	if err != nil {
		t.Fatal(err)
	}
	_, kb, err := CanonicalRequest(JobRequest{
		Graph: GraphSpec{Family: "cycle", N: 64, Rows: 3},
		Mode:  "exact",
		Seed:  1, // the default, spelled out
	}, limits)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equivalent cycle requests hash differently:\n%+v", a)
	}
	// Epsilon is only identity for approx mode.
	_, ke1, _ := CanonicalRequest(JobRequest{Graph: GraphSpec{Family: "cycle", N: 64}, Epsilon: 0.3}, limits)
	if ka != ke1 {
		t.Fatal("epsilon must not affect exact-mode keys")
	}
	_, kap1, _ := CanonicalRequest(JobRequest{Graph: GraphSpec{Family: "cycle", N: 64}, Mode: "approx", Epsilon: 0.3}, limits)
	_, kap2, _ := CanonicalRequest(JobRequest{Graph: GraphSpec{Family: "cycle", N: 64}, Mode: "approx", Epsilon: 0.4}, limits)
	if kap1 == kap2 {
		t.Fatal("approx epsilon must affect the key")
	}
	// Uploaded edge lists canonicalize order and orientation.
	e1 := [][3]int64{{2, 1, 5}, {0, 1, 1}, {3, 2, 2}}
	e2 := [][3]int64{{1, 0, 1}, {1, 2, 5}, {2, 3, 2}}
	_, k1, err := CanonicalRequest(JobRequest{Graph: GraphSpec{Family: "edges", N: 4, Edges: e1}}, limits)
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := CanonicalRequest(JobRequest{Graph: GraphSpec{Family: "edges", N: 4, Edges: e2}}, limits)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("reordered/reoriented edge lists hash differently")
	}
	// Different seeds are different computations.
	_, ks1, _ := CanonicalRequest(plantedReq(1), limits)
	_, ks2, _ := CanonicalRequest(plantedReq(2), limits)
	if ks1 == ks2 {
		t.Fatal("seed must affect the key")
	}
}

func TestFailedJobReported(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	// A valid-looking upload that is disconnected fails at Build time,
	// inside the worker.
	v, err := s.Submit(JobRequest{
		Graph: GraphSpec{Family: "edges", N: 4, Edges: [][3]int64{{0, 1, 1}, {2, 3, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		got, _ := s.Job(v.ID)
		if got.State == StateFailed {
			if got.Error == "" {
				t.Fatal("failed job carries no error")
			}
			break
		}
		if got.State == StateDone {
			t.Fatal("disconnected upload completed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m := s.Metrics(); m.Failed != 1 {
		t.Fatalf("failed = %d, want 1", m.Failed)
	}
	// A failed key must not poison the cache.
	if _, ok := s.ResultByKey(v.Key); ok {
		t.Fatal("failed job cached a result")
	}
}

func TestMetricsRoundsAccounting(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v, err := s.Submit(cycleReq(256))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, v.ID, StateDone, 2*time.Minute)
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.RoundsTotal != int64(res.Rounds) {
		t.Fatalf("RoundsTotal %d != job rounds %d", m.RoundsTotal, res.Rounds)
	}
	if m.RoundsPerSec <= 0 {
		t.Fatalf("RoundsPerSec %v, want > 0", m.RoundsPerSec)
	}
}

func TestSubmittedCounterCountsAccepted(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(cycleReq(64 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Submitted != 3 {
		t.Fatalf("submitted = %d, want 3", m.Submitted)
	}
}

func ExampleCanonicalRequest() {
	_, key, _ := CanonicalRequest(JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 24, N2: 24, K: 3, InP: 0.4, Seed: 7},
	}, Limits{})
	fmt.Println(len(key))
	// Output: 64
}

// TestJobRetentionBoundsMemory: finished job records beyond
// Options.JobRetention are dropped (404 on poll) while results stay
// reachable through the content-addressed cache — the guard against
// unbounded job-map growth under sustained traffic.
func TestJobRetentionBoundsMemory(t *testing.T) {
	s := New(Options{PoolSize: 2, JobRetention: 4})
	defer shutdown(t, s)
	first, err := s.Submit(cycleReq(64))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, first.ID, StateDone, 2*time.Minute)
	// Ten cache-hit submissions mint ten finished records; retention 4
	// must push the original (and the oldest hits) out.
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(cycleReq(64)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Job(first.ID); ok {
		t.Fatalf("job %s retained beyond JobRetention", first.ID)
	}
	if _, ok := s.ResultByKey(final.Key); !ok {
		t.Fatal("result evicted with the job record; must stay cached")
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 4 {
		t.Fatalf("job map holds %d records, retention is 4", n)
	}
}

// TestEdgeUploadRunsEndToEnd: a *valid* uploaded edge list must run
// and report the right cut — the square 0-1-2-3-0 with weights
// 5,1,5,1 has minimum cut 2 (the two weight-1 edges). Guards the
// canonicalization bug where the upload's node count was dropped and
// every upload failed at build time.
func TestEdgeUploadRunsEndToEnd(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v, err := s.Submit(JobRequest{
		Graph: GraphSpec{Family: "edges", N: 4,
			Edges: [][3]int64{{0, 1, 5}, {1, 2, 1}, {2, 3, 5}, {3, 0, 1}}},
		Mode: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, v.ID, StateDone, 2*time.Minute)
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.N != 4 || res.M != 4 || res.Value != 2 {
		t.Fatalf("square upload: n=%d m=%d cut=%d, want 4/4/2", res.N, res.M, res.Value)
	}
	// The declared node count is part of the canonical spec: the same
	// edges on a larger declared n is a different (disconnected, hence
	// invalid at build) computation, not the same key.
	_, k4, err := CanonicalRequest(JobRequest{
		Graph: GraphSpec{Family: "edges", N: 4, Edges: [][3]int64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, k5, err := CanonicalRequest(JobRequest{
		Graph: GraphSpec{Family: "edges", N: 5, Edges: [][3]int64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k5 {
		t.Fatal("uploads with different declared n must not share a cache key")
	}
}

// TestSubmittedExcludesBusyRejections: the jobs_submitted counter
// tracks accepted work only, so under saturation it must equal
// completed + failed + canceled + cache hits + coalesced.
func TestSubmittedExcludesBusyRejections(t *testing.T) {
	s := New(Options{PoolSize: 1, QueueDepth: 1})
	defer shutdown(t, s)
	accepted := 0
	for i := 0; i < 8; i++ {
		_, err := s.Submit(plantedReq(int64(50 + i)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrBusy):
		default:
			t.Fatal(err)
		}
	}
	if accepted == 8 {
		t.Fatal("test never saturated the queue")
	}
	if m := s.Metrics(); m.Submitted != int64(accepted) {
		t.Fatalf("jobs_submitted %d, accepted %d — 503s leaked into the counter", m.Submitted, accepted)
	}
}
