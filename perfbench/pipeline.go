package main

import (
	"fmt"
	"runtime"
	"time"

	"distmincut"
	"distmincut/internal/baseline"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/verify"
)

// pipeline is a closed-loop workload: one caller solving a few
// generated graphs round-robin on a warm engine through a public entry
// point.
type pipeline struct {
	build  func(seed int64, tiny bool) *graph.Graph
	lambda func(g *graph.Graph) (int64, error) // the oracle, once per graph, untimed
	solve  func(g *graph.Graph, o *distmincut.Options) (*answer, error)
	// bracket marks a tier whose answer is an interval around λ.
	bracket bool
	// instances is how many graphs of the family one run solves.
	// Rounds, messages and solve time vary from graph to graph (the
	// bracket's disconnecting level is bimodal), so the run averages
	// over several: as many as one window solves once each, and at
	// least two timed ones where a solve takes half the window.
	instances int
}

// answer is what the checks and the metrics read from one solve.
type answer struct {
	value, lo, hi int64
	side          []bool
	exact         bool
	trees, level  int
	stats         *congest.Stats
}

// bridgedExpanders builds two half-node deg-regular random expanders
// joined by one unit-weight bridge: λ = 1 by construction, with the
// bridge as the unique minimum cut.
func bridgedExpanders(half, deg int, seed int64) *graph.Graph {
	g := graph.New(2 * half)
	for side := 0; side < 2; side++ {
		sub := graph.RandomRegular(half, deg, seed+int64(side))
		off := graph.NodeID(side * half)
		for _, e := range sub.Edges() {
			g.MustAddEdge(e.U+off, e.V+off, e.W)
		}
	}
	g.MustAddEdge(0, graph.NodeID(half), 1)
	g.SortAdjacency()
	return g
}

func bridgedLambda(*graph.Graph) (int64, error) { return 1, nil }

func stoerWagnerLambda(g *graph.Graph) (int64, error) {
	v, _, err := baseline.StoerWagner(g)
	return v, err
}

func solveExact(g *graph.Graph, o *distmincut.Options) (*answer, error) {
	r, err := distmincut.MinCut(g, o)
	if err != nil {
		return nil, err
	}
	return &answer{value: r.Value, lo: r.Value, hi: r.Value, side: r.Side, exact: r.Exact,
		trees: r.TreesPacked, stats: r.Stats}, nil
}

func solveBracket(g *graph.Graph, o *distmincut.Options) (*answer, error) {
	r, err := distmincut.BracketMinCut(g, o)
	if err != nil {
		return nil, err
	}
	return &answer{value: r.Value, lo: r.Lo, hi: r.Hi, side: r.Side, exact: true,
		level: r.Level, stats: r.Stats}, nil
}

var pipelines = map[string]pipeline{
	// The reference instance: large n, one tree, execution-bound.
	"exact-bridged": {
		build: func(seed int64, tiny bool) *graph.Graph {
			return bridgedExpanders(pick(tiny, 2048, 32), 8, seed)
		},
		lambda:    bridgedLambda,
		solve:     solveExact,
		instances: 8,
	},
	// Small and dense with λ = 4: many trees over several doubling
	// guesses plus a certify top-up, and more delivery per wakeup.
	"exact-planted": {
		build: func(seed int64, tiny bool) *graph.Graph {
			n := pick(tiny, 128, 12)
			return graph.PlantedCut(n, n, 4, 0.3+pick(tiny, 0, 0.4), seed)
		},
		lambda:    stoerWagnerLambda,
		solve:     solveExact,
		instances: 3,
	},
	// The sampling tier at scale: no MST, respect or packing runs.
	"bracket-bridged": {
		build: func(seed int64, tiny bool) *graph.Graph {
			return bridgedExpanders(pick(tiny, 8192, 32), 8, seed)
		},
		lambda:    bridgedLambda,
		solve:     solveBracket,
		bracket:   true,
		instances: 8,
	},
}

func pick[T any](tiny bool, full, small T) T {
	if tiny {
		return small
	}
	return full
}

// check re-verifies one answer against the oracle's λ: the witness
// side must weigh what the solver reported, an exact answer must equal
// λ and be certified, and a bracket must contain λ.
func (p pipeline) check(g *graph.Graph, lambda int64, a *answer) error {
	w, err := verify.CutSides(g, a.side)
	if err != nil {
		return fmt.Errorf("witness side: %w", err)
	}
	if w != a.value {
		return fmt.Errorf("witness side weighs %d, solver reported %d", w, a.value)
	}
	if p.bracket {
		if a.lo > lambda || lambda > a.hi {
			return fmt.Errorf("bracket [%d, %d] misses λ = %d", a.lo, a.hi, lambda)
		}
		return nil
	}
	if a.value != lambda || !a.exact {
		return fmt.Errorf("cut %d (exact %v), want exact λ = %d", a.value, a.exact, lambda)
	}
	return nil
}

// fingerprint is the deterministic accounting of one solve: it must
// repeat exactly across the solves of a run, traced or not.
type fingerprint struct {
	rounds            int
	messages, wakeups int64
}

// solveSample is one timed solve; the traced fields are set only on
// solves that ran with the observer attached.
type solveSample struct {
	wall time.Duration
	// stolen is the CPU time the hypervisor took from the machine
	// during the solve, per vCPU.
	stolen time.Duration
	fp     fingerprint
	traced bool
	setup  int64 // Stats.SetupNanos
	dirty  int
	recs   []roundRec
	spans  []*distmincut.Span
	alloc  uint64
	gcs    uint32
	trees  int
	level  int
	// instance indexes the graph solved.
	instance int
}

// instanceSeed spaces the instance seeds: a bridged graph draws its two
// halves from seed and seed+1.
func instanceSeed(seed int64, i int) int64 { return seed*1000 + 2*int64(i) }

func runPipeline(p pipeline, cfg config) (*result, error) {
	res := &result{}
	start := time.Now()

	// Set-up: input generation and engine construction, repeated so
	// setup_s is a median, not one reading. Repetition r builds
	// instance r mod instances, so the last pass leaves them all.
	gs := make([]*graph.Graph, p.instances)
	var eng *congest.Engine
	var setups []float64
	for rep := 0; rep < max(cfg.setupReps, p.instances); rep++ {
		t0 := time.Now()
		k := rep % p.instances
		gs[k] = p.build(instanceSeed(cfg.seed, k), cfg.tiny)
		if eng != nil {
			eng.Close()
		}
		eng = congest.NewEngine(congest.Options{})
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer eng.Close()
	res.note("instances: %d graphs, n=%d m=%d (first)", len(gs), gs[0].N(), gs[0].M())

	lambdas := make([]int64, len(gs))
	for i, g := range gs {
		l, err := p.lambda(g)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		lambdas[i] = l
	}

	opts := &distmincut.Options{Engine: eng}
	fps := make([]fingerprint, len(gs)) // each instance's first accounting
	solve := func(k int, traced bool) (solveSample, bool) {
		g := gs[k]
		var log *roundLog
		o := *opts
		var ms0 runtime.MemStats
		if traced {
			log = &roundLog{}
			o.Observer = log
			runtime.ReadMemStats(&ms0)
		}
		steal0, _ := cpuSteal()
		t0 := time.Now()
		a, err := p.solve(g, &o)
		wall := time.Since(t0)
		steal1, _ := cpuSteal()
		res.attempted++
		if err == nil {
			err = p.check(g, lambdas[k], a)
		}
		if err != nil {
			res.failOp("solve %d (instance %d): %v", res.attempted, k, err)
			return solveSample{}, false
		}
		s := solveSample{
			wall:   wall,
			stolen: stolenPerCPU(steal1 - steal0),
			fp:     fingerprint{a.stats.Rounds, a.stats.Delivered, a.stats.Wakeups},
			traced: traced,
			setup:  a.stats.SetupNanos,
			dirty:  a.stats.DirtyNodes,
			trees:  a.trees,
			level:  a.level,
		}
		if traced {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			s.alloc, s.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
			s.recs = log.recs
			s.spans = distmincut.Spans(a.stats)
		}
		if fps[k] == (fingerprint{}) {
			fps[k] = s.fp
		} else if s.fp != fps[k] {
			res.fail("determinism: instance %d, solve %d (traced %v) gave rounds/messages/wakeups %v, first solve %v",
				k, res.attempted, traced, s.fp, fps[k])
		}
		return s, true
	}

	// The first solve on the fresh engine pays the cold setup; it is
	// checked but not timed into solve_s.
	cold, ok := solve(0, cfg.trace)
	res.note("setup: %d reps, median %.4f s (time to first timed call %.2f s incl. oracle and cold solve)",
		len(setups), median(setups), time.Since(start).Seconds())

	// Timed solves go round-robin over the instances, starting after
	// the cold one, until the window has passed and every instance has
	// been solved. The traced run solves each instance twice in a row,
	// untraced then traced, so tracing overhead compares like with like.
	var samples []solveSample
	solved := map[int]bool{0: ok}
	deadline := time.Now().Add(cfg.duration)
	for j := 0; ok && (time.Now().Before(deadline) || len(solved) < p.instances || len(samples) < minSolves); j++ {
		k, traced := (j+1)%p.instances, false
		if cfg.trace {
			k, traced = (j/2+1)%p.instances, j%2 == 1
		}
		s, good := solve(k, traced)
		if !good {
			break
		}
		s.instance = k
		samples = append(samples, s)
		solved[k] = true
	}
	if !ok || len(samples) < minSolves {
		return res, nil
	}

	// solve_s is each solve's wall time net of the time the hypervisor
	// stole from it; without steal the two are equal.
	var untraced, wall []float64
	for _, s := range samples {
		if !s.traced {
			untraced = append(untraced, (s.wall - s.stolen).Seconds())
			wall = append(wall, s.wall.Seconds())
		}
	}
	var rounds, messages []float64
	for k, fp := range fps {
		res.note("instance %d: λ=%d rounds=%d messages=%d wakeups=%d", k, lambdas[k], fp.rounds, fp.messages, fp.wakeups)
		rounds = append(rounds, float64(fp.rounds))
		messages = append(messages, float64(fp.messages))
	}
	solveS := median(untraced)
	res.note("solve_s: median of %d untraced solves over %d instances, net of steal = %.4f s (wall %.4f s); each: %.3f",
		len(untraced), len(gs), solveS, median(wall), untraced)
	res.e2e = []metric{
		{"setup_s", "s", median(setups)},
		{"solve_s", "s", solveS},
		{"rounds", "count", mean(rounds)},
		{"messages", "count", mean(messages)},
		{"peak_rss_mb", "MB", peakRSSMB()},
	}
	if cfg.trace {
		res.layers = pipelineLayers(res, samples, cold, median(setups))
		var spans [][]*distmincut.Span
		for _, s := range samples {
			if s.traced {
				spans = append(spans, s.spans)
			}
		}
		res.spans = spans
	}
	return res, nil
}

// pipelineLayers reduces the traced solves to the per-layer metrics:
// each is computed per solve and the median across traced solves is
// reported.
func pipelineLayers(res *result, samples []solveSample, cold solveSample, genS float64) map[string]float64 {
	per := map[string][]float64{}
	addf := func(k string, v float64) { per[k] = append(per[k], v) }
	var tracedWall []float64
	for _, s := range samples {
		if !s.traced {
			continue
		}
		wall := float64(s.wall.Nanoseconds())
		tracedWall = append(tracedWall, s.wall.Seconds())
		execNs, delNs, maxWoken := execDelivery(s.setup, s.recs)
		addf("congest.exec_s", float64(execNs)/1e9)
		addf("congest.ns_per_wake", float64(execNs)/float64(max(s.fp.wakeups, 1)))
		addf("congest.wakeups", float64(s.fp.wakeups))
		addf("congest.max_woken", float64(maxWoken))
		addf("congest.delivery_s", float64(delNs)/1e9)
		addf("congest.delivery_share", float64(delNs)/wall)
		addf("congest.msgs_per_s", float64(s.fp.messages)/s.wall.Seconds())
		addf("congest.setup_warm_us", float64(s.setup)/1e3)
		addf("congest.dirty_nodes", float64(s.dirty))
		addf("congest.alloc_mb", float64(s.alloc)/(1<<20))
		addf("congest.gc_cycles", float64(s.gcs))

		t := spanTotals{}
		t.add(s.spans)
		ms := func(name string) float64 { return float64(t.get(name).nanos) / 1e6 }
		addf("proto.bfs_ms", ms("bfs"))
		addf("proto.bfs_rounds", float64(t.get("bfs").rounds))
		mst := t.get("mst")
		addf("mst.ms", ms("mst"))
		addf("mst.rounds", float64(mst.rounds))
		addf("mst.messages", float64(mst.messages))
		addf("mst.part1_rounds", float64(t.get("mst:part1").rounds))
		addf("mst.part2_rounds", float64(t.get("mst:part2").rounds))
		addf("mst.part2_ms", ms("mst:part2"))
		rs := t.get("respect")
		addf("respect.ms", ms("respect"))
		addf("respect.rounds", float64(rs.rounds))
		addf("respect.messages", float64(rs.messages))
		addf("packing.trees", float64(s.trees))
		addf("packing.guesses", float64(t.get("pack").count)) // pack spans are top-level only
		addf("packing.certify_ms", ms("certify"))
		addf("packing.self_ms", float64(t.get("pack").selfNanos+t.get("certify").selfNanos)/1e6)
		addf("packing.markside_ms", ms("markside"))
		addf("packing.evalcut_ms", ms("evalcut"))
		br := t.get("bracket")
		addf("sampling.bracket_ms", ms("bracket"))
		addf("sampling.bracket_rounds", float64(br.rounds))
		addf("sampling.bracket_messages", float64(br.messages))
		addf("sampling.mindeg_ms", ms("mindeg"))
		addf("sampling.level", float64(s.level))

		// Coverage: the top-level spans plus engine setup must account
		// for the solve's wall time.
		uncovered := wall - float64(topCovered(s.spans)+s.setup)
		addf("trace.uncovered_ms", uncovered/1e6)
		if uncovered > max(maxUncovered*wall, float64(minUncoveredLimit)) {
			res.fail("coverage: spans plus setup leave %.1f ms of a %.1f ms solve uncovered", uncovered/1e6, wall/1e6)
		}
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	out["congest.setup_cold_ms"] = float64(cold.setup) / 1e6
	out["graph.gen_ms"] = genS * 1e3
	out["trace.overhead_ratio"] = traceOverhead(samples)
	res.report = append(res.report, fmt.Sprintf("traced solves: %d; uncovered remainder per solve: %.2f ms (median)",
		len(tracedWall), out["trace.uncovered_ms"]))
	return out
}

// traceOverhead is traced over untraced solve time, minus 1: the
// median over instances solved both ways of the ratio of their median
// wall times, so graphs of different cost are never compared.
func traceOverhead(samples []solveSample) float64 {
	walls := map[int]map[bool][]float64{}
	for _, s := range samples {
		if walls[s.instance] == nil {
			walls[s.instance] = map[bool][]float64{}
		}
		walls[s.instance][s.traced] = append(walls[s.instance][s.traced], s.wall.Seconds())
	}
	var ratios []float64
	for _, w := range walls {
		if len(w[true]) > 0 && len(w[false]) > 0 {
			ratios = append(ratios, median(w[true])/median(w[false]))
		}
	}
	return median(ratios) - 1
}

// maxUncovered is the share of a solve's wall time the top-level spans
// plus engine setup may leave unaccounted before the coverage check
// fails: the remainder is run teardown and result assembly, which on a
// toy graph takes milliseconds however short the solve (tens under the
// race detector), hence the absolute floor. Every full-size solve takes
// over a second, where the share is the binding limit.
const (
	maxUncovered      = 0.05
	minUncoveredLimit = 25 * time.Millisecond
)
