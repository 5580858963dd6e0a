package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distmincut"
	"distmincut/internal/graph"
	"distmincut/internal/service"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailRefusesThinTails(t *testing.T) {
	// p95 of 199 samples sits at rank 189 with 9 samples beyond it.
	if v, err := tail(seq(199), 0.95); err == nil {
		t.Fatalf("p95 of 199 samples = %v, want a refusal", v)
	}
	v, err := tail(seq(200), 0.95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := tail(seq(20), 0.5); err != nil {
		t.Fatalf("median of 20 samples refused: %v", err)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 in (0,1], 10 in (1,2], none above.
	counts := []int64{10, 10, 0, 0}
	if got := histQuantile(bounds, counts, 0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := histQuantile(bounds, counts, 0.75); got != 1.5 {
		t.Fatalf("p75 = %v, want 1.5", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Fatalf("overflow p50 = %v, want the last bound", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	sp := func(name string, lo, hi int64, kids ...*distmincut.Span) *distmincut.Span {
		return &distmincut.Span{Name: name, StartNanos: lo, EndNanos: hi, Children: kids}
	}
	// pack [0,100] holds mst [10,40] and respect [40,70]: self 40.
	pack := sp("pack", 0, 100, sp("mst", 10, 40, sp("mst:part1", 10, 30)), sp("respect", 40, 70))
	if got := selfNanos(pack); got != 40 {
		t.Fatalf("self = %d, want 40", got)
	}
	// Overlapping and overhanging children count once, clipped.
	odd := sp("x", 0, 100, sp("a", 10, 50), sp("b", 30, 60), sp("c", 90, 120))
	if got := selfNanos(odd); got != 100-50-10 {
		t.Fatalf("self = %d, want 40", got)
	}
	tot := spanTotals{}
	tot.add([]*distmincut.Span{pack, sp("bracket:1", 100, 110), sp("bracket:2", 110, 130)})
	if got := tot.get("mst:part1").nanos; got != 20 {
		t.Fatalf("mst:part1 total = %d, want 20", got)
	}
	if b := tot.get("bracket"); b.nanos != 30 || b.count != 2 {
		t.Fatalf("bracket totals = %+v, want 30 ns over 2 spans", b)
	}
	if got := topCovered([]*distmincut.Span{pack, sp("evalcut", 100, 130)}); got != 130 {
		t.Fatalf("top-level coverage = %d, want 130", got)
	}
}

func TestExecIsRoundWallMinusDelivery(t *testing.T) {
	// Setup ends at 100; rounds end at 300, 450 and 1000 with 50, 30
	// and 200 of delivery each.
	recs := []roundRec{{300, 50, 4}, {450, 30, 9}, {1000, 200, 2}}
	exec, del, maxWoken := execDelivery(100, recs)
	if exec != (200-50)+(150-30)+(550-200) || del != 280 || maxWoken != 9 {
		t.Fatalf("exec %d, delivery %d, max woken %d; want 620, 280, 9", exec, del, maxWoken)
	}
}

func TestStolenPerCPULeavesOutTickOvercount(t *testing.T) {
	n := int64(runtime.NumCPU())
	if got := stolenPerCPU(n); got != 0 {
		t.Fatalf("%d ticks over %d vCPUs = %v, want 0", n, n, got)
	}
	if got, want := stolenPerCPU(n+4*n), 40*time.Millisecond; got != want {
		t.Fatalf("stolen = %v, want %v", got, want)
	}
}

// TestOpenLoopLatencyFromDueTime drives the client against a fake
// service: a request launched late is charged from its due time, and
// the lateness is reported as generator lag.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	g := graph.Cycle(6)
	res, _ := json.Marshal(service.Result{Tier: service.TierBracket, Lo: 1, Hi: 3, Value: 2})
	var polls atomic.Int32
	const serverDelay = 20 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(service.JobView{ID: "r0.j1", State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v := service.JobView{ID: "r0.j1", State: service.StateRunning}
		if polls.Add(1) >= 3 {
			time.Sleep(serverDelay)
			v.State, v.Result = service.StateDone, res
		}
		_ = json.NewEncoder(w).Encode(v)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.http.CloseIdleConnections()

	const late = 50 * time.Millisecond
	due := time.Now().Add(-late)
	o := c.do(mixReq{tier: service.TierBracket, lambda: 2, g: g}, due)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.lag < late || o.lag > late+time.Second {
		t.Fatalf("lag = %v, want about %v", o.lag, late)
	}
	if o.latency < late+serverDelay {
		t.Fatalf("latency = %v, want at least lag %v plus the server's %v", o.latency, late, serverDelay)
	}
	if o.polls != 3 || o.calls != 4 || o.firstAnswer != o.latency {
		t.Fatalf("polls %d, calls %d, first answer %v vs latency %v", o.polls, o.calls, o.firstAnswer, o.latency)
	}
	// The same answer outside the bracket is a failure.
	if o := c.do(mixReq{tier: service.TierBracket, lambda: 5, g: g}, time.Now()); o.err == nil {
		t.Fatal("bracket [1, 3] accepted for λ = 5")
	}
}

func TestPipelineCheckFlagsWrongAnswers(t *testing.T) {
	g := graph.Cycle(6) // λ = 2
	side := []bool{true, true, false, false, false, false}
	exact := pipelines["exact-bridged"]
	if err := exact.check(g, 2, &answer{value: 2, side: side, exact: true}); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for _, a := range []*answer{
		{value: 3, side: side, exact: true},                                           // wrong value
		{value: 2, side: side, exact: false},                                          // uncertified
		{value: 2, side: []bool{true, false, true, false, false, false}, exact: true}, // side weighs 4
	} {
		if err := exact.check(g, 2, a); err == nil {
			t.Fatalf("wrong answer %+v accepted", a)
		}
	}
	br := pipelines["bracket-bridged"]
	if err := br.check(g, 2, &answer{value: 2, lo: 3, hi: 8, side: side}); err == nil {
		t.Fatal("bracket [3, 8] accepted for λ = 2")
	}
}

// TestSmokeAllWorkloads runs every workload at toy size, traced, and
// checks the run is correct and prints every metric it owes.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, duration: time.Second, trace: true, tiny: true, setupReps: 2}
			res, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %q", res.attempted, res.failed, res.problems)
			}
			if len(res.e2e) != 5 {
				t.Fatalf("%d end-to-end metrics, want 5", len(res.e2e))
			}
			for _, m := range res.e2e {
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v, want a positive number", m.name, m.value)
				}
			}
			for k := range res.layers {
				known := false
				for _, m := range perLayer {
					known = known || m.name == k
				}
				if !known {
					t.Errorf("layer metric %s is not in perLayer", k)
				}
			}
			var sb strings.Builder
			line, err := printResult(&sb, res, true)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil || !out.Correct || len(out.Metrics) != len(perLayer) {
				t.Fatalf("result line %s: %v", line, err)
			}
		})
	}
}
