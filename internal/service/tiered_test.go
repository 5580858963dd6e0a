package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// tieredReq is a tiered job whose exact phase is slow enough (complete
// graph, λ = n-1, hundreds of packed trees across the doubling guesses)
// that polling reliably observes the refining state, while the loose
// ε = 0.9 approx phase caps its packing at a small κ and finishes fast.
func tieredReq() JobRequest {
	return JobRequest{
		Graph:   GraphSpec{Family: "complete", N: 20},
		Tier:    TierTiered,
		Epsilon: 0.9,
		Seed:    7,
	}
}

// waitRefining polls until the job publishes its approximate payload
// (state refining) and returns that view.
func waitRefining(t *testing.T, s *Service, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State == StateRefining {
			return v
		}
		if v.State != StateQueued && v.State != StateRunning {
			t.Fatalf("job %s reached %s (error %q) without refining", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, refining never observed", id, v.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTieredJobRefinesToExact is the acceptance test for
// approximation-first serving: a tiered job publishes its approximate
// answer (state refining) before exact certification finishes, refines
// to a certified exact result, and leaves both phases cached under the
// keys direct submissions at those tiers would use.
func TestTieredJobRefinesToExact(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)

	v, err := s.Submit(tieredReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Tier != TierTiered {
		t.Fatalf("tier = %q, want %q", v.Tier, TierTiered)
	}

	// The approximate answer must be observable before the job is done.
	ref := waitRefining(t, s, v.ID, time.Minute)
	if ref.Approx == nil {
		t.Fatal("refining view has no approx payload")
	}
	if ref.Result != nil {
		t.Fatal("refining view already has a final result")
	}
	var approx Result
	if err := json.Unmarshal(ref.Approx, &approx); err != nil {
		t.Fatalf("approx payload: %v", err)
	}
	if approx.Tier != TierApprox {
		t.Fatalf("approx payload tier = %q, want %q", approx.Tier, TierApprox)
	}
	if approx.Value < 19 { // λ = n-1 on the complete graph; any cut weighs ≥ λ
		t.Fatalf("approx value %d below λ = 19", approx.Value)
	}

	done := waitState(t, s, v.ID, StateDone, time.Minute)
	if done.Approx == nil {
		t.Fatal("done view dropped the approx payload")
	}
	var exact Result
	if err := json.Unmarshal(done.Result, &exact); err != nil {
		t.Fatalf("final result: %v", err)
	}
	if exact.Tier != TierExact || !exact.Exact || exact.Value != 19 {
		t.Fatalf("final result tier=%q exact=%v value=%d, want certified exact 19",
			exact.Tier, exact.Exact, exact.Value)
	}
	if approx.Key == exact.Key {
		t.Fatal("approx and exact phases share a cache key")
	}

	// Both phase results must now be cache hits for direct submissions
	// at those tiers...
	directApprox := JobRequest{Graph: GraphSpec{Family: "complete", N: 20},
		Tier: TierApprox, Epsilon: 0.9, Seed: 7}
	va, err := s.Submit(directApprox)
	if err != nil {
		t.Fatal(err)
	}
	if va.State != StateDone || !va.CacheHit {
		t.Fatalf("direct approx: state=%s cache_hit=%v, want cached done", va.State, va.CacheHit)
	}
	if !bytes.Equal(va.Result, ref.Approx) {
		t.Fatal("direct approx result differs from the published approx payload")
	}
	directExact := JobRequest{Graph: GraphSpec{Family: "complete", N: 20},
		Tier: TierExact, Seed: 7}
	ve, err := s.Submit(directExact)
	if err != nil {
		t.Fatal(err)
	}
	if ve.State != StateDone || !ve.CacheHit {
		t.Fatalf("direct exact: state=%s cache_hit=%v, want cached done", ve.State, ve.CacheHit)
	}
	if !bytes.Equal(ve.Result, done.Result) {
		t.Fatal("direct exact result differs from the tiered final result")
	}

	// ...and a tiered resubmission is served whole from the cache, with
	// both the exact result and the approx payload attached.
	v2, err := s.Submit(tieredReq())
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("tiered resubmit: state=%s cache_hit=%v, want cached done", v2.State, v2.CacheHit)
	}
	if !bytes.Equal(v2.Result, done.Result) || !bytes.Equal(v2.Approx, ref.Approx) {
		t.Fatal("tiered resubmit payloads differ from the original run")
	}
}

// TestTieredExactPhaseBytesMatchDirectExact asserts cross-tier cache
// integrity: the bytes a tiered job caches under its exact phase key
// are byte-identical to what a direct exact submission on a fresh
// service produces, so results flow between the two paths verbatim.
func TestTieredExactPhaseBytesMatchDirectExact(t *testing.T) {
	req := JobRequest{Graph: GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 4}}

	direct := New(Options{PoolSize: 2})
	defer shutdown(t, direct)
	dv, err := direct.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	dres := waitState(t, direct, dv.ID, StateDone, time.Minute)

	tiered := New(Options{PoolSize: 2})
	defer shutdown(t, tiered)
	treq := req
	treq.Tier = TierTiered
	tv, err := tiered.Submit(treq)
	if err != nil {
		t.Fatal(err)
	}
	tres := waitState(t, tiered, tv.ID, StateDone, time.Minute)
	if !bytes.Equal(dres.Result, tres.Result) {
		t.Fatalf("tiered exact phase bytes differ from direct exact:\n%s\nvs\n%s",
			tres.Result, dres.Result)
	}
	data, ok := tiered.ResultByKey(dv.Key)
	if !ok {
		t.Fatalf("tiered service did not cache the exact phase under the direct key %s", dv.Key)
	}
	if !bytes.Equal(data, dres.Result) {
		t.Fatal("cached exact phase bytes differ from direct exact result")
	}
}

// TestBracketTierServed runs the bracket tier through the service: the
// result carries a [lo, hi] bracket containing the true λ (read off a
// direct exact run of the same spec) and a certified witness cut, and a
// resubmission is a cache hit.
func TestBracketTierServed(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	spec := GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 4}

	ev, err := s.Submit(JobRequest{Graph: spec, Tier: TierExact})
	if err != nil {
		t.Fatal(err)
	}
	var exact Result
	if err := json.Unmarshal(waitState(t, s, ev.ID, StateDone, time.Minute).Result, &exact); err != nil {
		t.Fatal(err)
	}

	bv, err := s.Submit(JobRequest{Graph: spec, Tier: TierBracket})
	if err != nil {
		t.Fatal(err)
	}
	bres := waitState(t, s, bv.ID, StateDone, time.Minute)
	var br Result
	if err := json.Unmarshal(bres.Result, &br); err != nil {
		t.Fatal(err)
	}
	if br.Tier != TierBracket || br.Mode != TierBracket {
		t.Fatalf("bracket result tier=%q mode=%q", br.Tier, br.Mode)
	}
	if br.Lo < 1 || br.Lo > br.Hi {
		t.Fatalf("malformed bracket [%d, %d]", br.Lo, br.Hi)
	}
	if exact.Value < br.Lo || exact.Value > br.Hi {
		t.Fatalf("λ = %d outside bracket [%d, %d]", exact.Value, br.Lo, br.Hi)
	}
	if br.Value < exact.Value {
		t.Fatalf("witness cut %d below λ = %d", br.Value, exact.Value)
	}

	bv2, err := s.Submit(JobRequest{Graph: spec, Tier: TierBracket})
	if err != nil {
		t.Fatal(err)
	}
	if bv2.State != StateDone || !bv2.CacheHit {
		t.Fatalf("bracket resubmit: state=%s cache_hit=%v, want cached done", bv2.State, bv2.CacheHit)
	}
	if !bytes.Equal(bv2.Result, bres.Result) {
		t.Fatal("bracket resubmit served different bytes")
	}
}

// TestCancelDuringRefiningKeepsApprox asserts the refinement-aware
// cancellation contract: canceling a tiered job mid-refinement aborts
// the exact phase but the canceled record keeps the already-published
// approximate payload.
func TestCancelDuringRefiningKeepsApprox(t *testing.T) {
	s := New(Options{PoolSize: 2})
	defer shutdown(t, s)
	v, err := s.Submit(tieredReq())
	if err != nil {
		t.Fatal(err)
	}
	ref := waitRefining(t, s, v.ID, time.Minute)
	cv, ok := s.Cancel(v.ID)
	if !ok {
		t.Fatal("cancel: job not found")
	}
	if cv.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", cv.State)
	}
	if !bytes.Equal(cv.Approx, ref.Approx) {
		t.Fatal("canceled view lost the approx payload")
	}
	// The approx phase was cached before refining began, so a direct
	// approx submission is still a cache hit after the cancellation.
	va, err := s.Submit(JobRequest{Graph: GraphSpec{Family: "complete", N: 20},
		Tier: TierApprox, Epsilon: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if va.State != StateDone || !va.CacheHit {
		t.Fatalf("approx after cancel: state=%s cache_hit=%v, want cached done", va.State, va.CacheHit)
	}
}

// TestTierSpecValidation covers the tier/mode agreement table and the
// epsilon gate on the tiers that consume it.
func TestTierSpecValidation(t *testing.T) {
	cycle := GraphSpec{Family: "cycle", N: 8}
	cases := []struct {
		name string
		req  JobRequest
		want string // substring of the error, "" = must be accepted
		tier string // canonical tier when accepted
	}{
		{"default", JobRequest{Graph: cycle}, "", TierExact},
		{"legacy mode", JobRequest{Graph: cycle, Mode: "approx"}, "", TierApprox},
		{"tier only", JobRequest{Graph: cycle, Tier: TierBracket}, "", TierBracket},
		{"agreeing pair", JobRequest{Graph: cycle, Mode: "exact", Tier: TierExact}, "", TierExact},
		{"tiered", JobRequest{Graph: cycle, Tier: TierTiered}, "", TierTiered},
		{"unknown tier", JobRequest{Graph: cycle, Tier: "blended"}, `unknown tier "blended"`, ""},
		{"conflicting pair", JobRequest{Graph: cycle, Mode: "approx", Tier: TierExact},
			`mode "approx" conflicts with tier "exact"`, ""},
		{"tiered with mode", JobRequest{Graph: cycle, Mode: "exact", Tier: TierTiered},
			`tier "tiered" takes no mode`, ""},
		{"bracket with mode", JobRequest{Graph: cycle, Mode: "respect", Tier: TierBracket},
			`tier "bracket" takes no mode`, ""},
		{"tiered bad epsilon", JobRequest{Graph: cycle, Tier: TierTiered, Epsilon: 1.5},
			"epsilon", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			canon, _, err := CanonicalRequest(tc.req, Limits{})
			if tc.want != "" {
				if err == nil || !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want ErrBadSpec containing %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if canon.Tier != tc.tier {
				t.Fatalf("canonical tier = %q, want %q", canon.Tier, tc.tier)
			}
			if canon.Mode != "" {
				t.Fatalf("canonical form kept legacy mode %q", canon.Mode)
			}
		})
	}
}

// TestTierKeysMatchDirectSubmissions pins the tier-qualified addressing
// scheme: a legacy mode spells the same key as its tier, and a tiered
// request's phase keys equal the keys of direct submissions at those
// tiers (same epsilon for approx; epsilon dropped for exact).
func TestTierKeysMatchDirectSubmissions(t *testing.T) {
	g := GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 4}
	keyOf := func(req JobRequest) string {
		t.Helper()
		_, key, err := CanonicalRequest(req, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	if keyOf(JobRequest{Graph: g, Mode: "approx", Epsilon: 0.9}) !=
		keyOf(JobRequest{Graph: g, Tier: TierApprox, Epsilon: 0.9}) {
		t.Fatal("mode approx and tier approx hash to different keys")
	}
	canon, tieredKey, err := CanonicalRequest(JobRequest{Graph: g, Tier: TierTiered, Epsilon: 0.9}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	approxKey, err := TierKey(canon, TierApprox, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	exactKey, err := TierKey(canon, TierExact, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if approxKey != keyOf(JobRequest{Graph: g, Tier: TierApprox, Epsilon: 0.9}) {
		t.Fatal("tiered approx phase key differs from a direct approx submission")
	}
	if exactKey != keyOf(JobRequest{Graph: g, Tier: TierExact}) {
		t.Fatal("tiered exact phase key differs from a direct exact submission")
	}
	if tieredKey == approxKey || tieredKey == exactKey || approxKey == exactKey {
		t.Fatalf("tier keys collide: tiered=%s approx=%s exact=%s", tieredKey, approxKey, exactKey)
	}
}

// TestTieredProgressSumsPhases: an uncached tiered job runs the approx
// and then the exact phase, and its progress gauge counts both — the
// finished view and the service's rounds counter report the two
// phases' rounds and messages added together.
func TestTieredProgressSumsPhases(t *testing.T) {
	s := New(Options{PoolSize: 1})
	defer shutdown(t, s)
	v, err := s.Submit(JobRequest{
		Graph: GraphSpec{Family: "planted", N1: 16, N2: 16, K: 2, InP: 0.5, Seed: 1},
		Tier:  TierTiered, Epsilon: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, v.ID, StateDone, time.Minute)
	var approx, exact Result
	if err := json.Unmarshal(done.Approx, &approx); err != nil {
		t.Fatalf("approx payload: %v", err)
	}
	if err := json.Unmarshal(done.Result, &exact); err != nil {
		t.Fatalf("final result: %v", err)
	}
	if approx.Rounds == 0 || exact.Rounds == 0 {
		t.Fatalf("degenerate phases: approx %d rounds, exact %d rounds", approx.Rounds, exact.Rounds)
	}
	wantRounds := int64(approx.Rounds + exact.Rounds)
	if done.Rounds != wantRounds {
		t.Errorf("view rounds = %d, want approx %d + exact %d", done.Rounds, approx.Rounds, exact.Rounds)
	}
	if want := approx.Messages + exact.Messages; done.Delivered != want {
		t.Errorf("view delivered = %d, want approx %d + exact %d", done.Delivered, approx.Messages, exact.Messages)
	}
	if m := s.Metrics(); m.RoundsTotal != wantRounds {
		t.Errorf("RoundsTotal = %d, want %d", m.RoundsTotal, wantRounds)
	}
}
