// Package distmincut is a library reproduction of
//
//	Danupon Nanongkai, "Brief Announcement: Almost-Tight Approximation
//	Distributed Algorithm for Minimum Cut", PODC 2014 (arXiv:1403.6188).
//
// It computes minimum cuts of weighted graphs with a distributed
// algorithm in the synchronous CONGEST model, simulated faithfully
// (one goroutine per node, one O(log n)-bit message per edge per
// round): the minimum cut λ exactly in Õ((√n + D)·poly(λ)) rounds, and
// a (1+ε)-approximation in Õ((√n + D)/poly(ε)) rounds via Karger
// sampling — improving the (2+ε) of Ghaffari–Kuhn [DISC 2013] and
// matching the Ω̃(√n + D) lower bound of Das Sarma et al. up to
// polylogs.
//
// The pipeline is Thorup's greedy tree packing (internal/packing) over
// a Kutten–Peleg-style distributed MST (internal/mst), with the
// paper's Section-2 algorithm (internal/respect) finding, for each
// packed tree, the minimum cut that 1-respects it in Õ(√n + D) rounds.
//
// Entry points: MinCut (exact, small λ), ApproxMinCut ((1+ε), any λ),
// BracketMinCut (an O(log n)-factor bracket on λ in a handful of
// cheap rounds, the front tier ahead of the other two), and
// OneRespectingCut (Theorem 2.1 on the MST alone). Each runs the whole
// distributed protocol on the in-process CONGEST runtime and reports
// round/message complexity alongside the cut.
package distmincut

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/mst"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/sampling"
)

// ErrBadInput is returned for graphs on which no cut exists or that
// are not connected.
var ErrBadInput = errors.New("distmincut: need a connected graph with at least 2 nodes")

// Options tune a run. The zero value is ready to use.
type Options struct {
	// Seed drives all randomness (engine scheduling is deterministic;
	// the seed affects MST coin flips and sampling). Zero means 1.
	Seed int64
	// Epsilon is the approximation parameter for ApproxMinCut
	// (default 0.5).
	Epsilon float64
	// MaxLambda bounds the exact algorithm's doubling search
	// (default 2^20). Beyond it MinCut returns its best cut found with
	// Exact=false; use ApproxMinCut for large cuts.
	MaxLambda int64
	// SizeCap overrides the √n fragment size threshold (E9 ablation).
	SizeCap int
	// Unbounded switches the runtime to unbounded per-edge bandwidth
	// (LOCAL-model ablation, E9).
	Unbounded bool
	// MaxRounds overrides the runtime's safety cap. When a run trips
	// it, the error matches congest.ErrBudgetExceeded (and
	// congest.ErrMaxRounds) and carries the partial progress.
	MaxRounds int
	// Deadline, when non-zero, aborts the runtime at the first round
	// boundary past this wall-clock instant with an error matching
	// congest.ErrBudgetExceeded. For the multi-phase entry points the
	// deadline is absolute: every phase's simulation checks it. The
	// context-taking entry points also derive it from the context's own
	// deadline, so a context.WithDeadline context bounds the run even
	// if this field is zero.
	Deadline time.Time
	// Engine, when non-nil, runs the protocol on this reusable runtime
	// (congest.NewEngine) instead of a one-shot engine. A warm engine
	// retains its slabs and port tables between runs, so repeated
	// computations — same graph or same scale — skip nearly all of the
	// per-run setup (see congest.Engine). The engine's options are
	// overwritten from this struct for every run, except its delivery
	// shard count: an engine created with a nonzero
	// congest.Options.DeliveryShards keeps delivering on that many
	// shards. The caller must not use one engine from concurrent
	// computations.
	Engine *congest.Engine
	// Observer, when non-nil, receives one congest.RoundRecord per
	// simulated round at the runtime's round barrier — per-round message
	// and wake counts plus wall-clock delivery timings. Arm a
	// congest.FlightRecorder here to keep a post-mortem tail of the last
	// rounds across deadline or budget aborts, or a congest.Progress to
	// sample a running computation from another goroutine. Nil (the
	// default) costs nothing. See congest.Options.Observer.
	Observer congest.Observer
}

// treesPerLevel caps the trees packed per sampling level of
// ApproxMinCut.
const treesPerLevel = 32

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Epsilon <= 0 || out.Epsilon >= 1 {
		out.Epsilon = 0.5
	}
	if out.MaxLambda <= 0 {
		out.MaxLambda = 1 << 20
	}
	return out
}

// Result reports a distributed min-cut computation.
type Result struct {
	// Value is the weight of the returned cut; Side marks one side of
	// it (Side[v] == true means node v is inside X).
	Value int64
	Side  []bool
	// Exact reports whether Value is certified to equal λ (the exact
	// algorithm converged, or the approximate one resolved the cut at
	// sampling level 0).
	Exact bool
	// BestNode is the tree node v whose subtree v↓ defines the cut, and
	// TreesPacked how many trees the packing used.
	BestNode    graph.NodeID
	TreesPacked int
	// Levels is the number of sampling levels descended (approx only);
	// SkeletonCut the cut value measured in the final skeleton and
	// SamplingProb its sampling probability.
	Levels       int
	SkeletonCut  int64
	SamplingProb float64
	// Rounds and Messages are the CONGEST complexity of the whole run;
	// Stats has the full accounting.
	Rounds   int
	Messages int64
	Stats    *congest.Stats
}

// engineOpts assembles the runtime options for one run. ctx.Done()
// becomes the runtime's interrupt channel (nil for contexts that can
// never be canceled, which keeps the uncancellable path free).
func (o Options) engineOpts(ctx context.Context) congest.Options {
	deadline := o.Deadline
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	return congest.Options{
		Seed:      o.Seed,
		Unbounded: o.Unbounded,
		MaxRounds: o.MaxRounds,
		Interrupt: ctx.Done(),
		Deadline:  deadline,
		Observer:  o.Observer,
	}
}

// runSim executes one distributed node program on the caller's
// reusable engine when Options.Engine is set and on a one-shot engine
// otherwise.
func (o Options) runSim(ctx context.Context, g *graph.Graph, program func(*congest.Node)) (*congest.Stats, error) {
	eo := o.engineOpts(ctx)
	if o.Engine != nil {
		o.Engine.SetOptions(eo)
		return o.Engine.Run(g, program)
	}
	return congest.Run(g, eo, program)
}

// ctxErr maps a runtime interrupt caused by ctx back to the context's
// own error (context.Canceled or context.DeadlineExceeded), so callers
// can errors.Is against the standard sentinels.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && errors.Is(err, congest.ErrInterrupted) {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("distmincut: run canceled: %w", cerr)
		}
	}
	return err
}

// collector gathers per-node outputs under a lock.
type collector struct {
	mu    sync.Mutex
	sides []bool
	packs []*packing.Result
	value int64
	extra map[string]int64
}

// MaxWeight bounds edge weights: the MST key comparison packs loads
// and weights into single words and cross-multiplies them in int64, so
// weights must stay below 2^31.
const MaxWeight = 1<<31 - 1

func validate(g *graph.Graph) error {
	if g.N() < 2 {
		return fmt.Errorf("%w: n = %d", ErrBadInput, g.N())
	}
	if !graph.IsConnected(g) {
		return fmt.Errorf("%w: graph is disconnected", ErrBadInput)
	}
	for _, e := range g.Edges() {
		if e.W > MaxWeight {
			return fmt.Errorf("%w: edge {%d,%d} weight %d exceeds MaxWeight %d",
				ErrBadInput, e.U, e.V, e.W, int64(MaxWeight))
		}
	}
	return nil
}

// MinCut computes the minimum cut exactly with the paper's main
// algorithm (tree packing with a doubling guess for λ). For cuts
// beyond Options.MaxLambda the result carries Exact=false; use
// ApproxMinCut there.
func MinCut(g *graph.Graph, opts *Options) (*Result, error) {
	return MinCutContext(context.Background(), g, opts)
}

// MinCutContext is MinCut with cancellation: when ctx is canceled the
// distributed run aborts at the next round boundary and the error wraps
// ctx.Err(). A run that completes is unaffected by a later cancel.
func MinCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	col := &collector{sides: make([]bool, g.N()), packs: make([]*packing.Result, g.N())}
	exactAll := true
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		res, exact := packing.ExactDoubling(nd, bfs, o.MaxLambda,
			packing.Options{SizeCap: o.SizeCap}, 1000)
		side := packing.MarkSide(nd, bfs, res, 100)
		value := packing.EvaluateCut(nd, bfs, side, 200)
		col.mu.Lock()
		defer col.mu.Unlock()
		col.sides[nd.ID()] = side
		col.packs[nd.ID()] = res
		col.value = value
		if !exact {
			exactAll = false
		}
	})
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	p := col.packs[0]
	return &Result{
		Value:       col.value,
		Side:        col.sides,
		Exact:       exactAll,
		BestNode:    p.CutNode,
		TreesPacked: p.Trees,
		Rounds:      stats.Rounds,
		Messages:    stats.Delivered,
		Stats:       stats,
	}, nil
}

// OneRespectingCut runs Theorem 2.1 alone: build the MST distributedly
// and find the minimum cut that 1-respects it, in Õ(√n + D) rounds.
// The returned value is an upper bound on λ (and at most a factor ~2
// above it for MST trees under Thorup packing's first tree); every
// node also learns C(v↓) — the PerNode slice reports them.
func OneRespectingCut(g *graph.Graph, opts *Options) (*Result, []int64, error) {
	return OneRespectingCutContext(context.Background(), g, opts)
}

// OneRespectingCutContext is OneRespectingCut with cancellation; see
// MinCutContext for the contract.
func OneRespectingCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*Result, []int64, error) {
	if err := validate(g); err != nil {
		return nil, nil, err
	}
	o := opts.withDefaults()
	col := &collector{sides: make([]bool, g.N()), packs: make([]*packing.Result, g.N())}
	perNode := make([]int64, g.N())
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		loads := make(map[int]int64, nd.Degree())
		res := packing.Pack(nd, bfs, 1, loads, packing.Options{SizeCap: o.SizeCap}, 1000, nil)
		side := packing.MarkSide(nd, bfs, res, 100)
		col.mu.Lock()
		defer col.mu.Unlock()
		col.sides[nd.ID()] = side
		col.packs[nd.ID()] = res
		perNode[nd.ID()] = res.BestOutput.CutBelow
	})
	if err != nil {
		return nil, nil, ctxErr(ctx, err)
	}
	p := col.packs[0]
	return &Result{
		Value:       p.Cut,
		Side:        col.sides,
		BestNode:    p.CutNode,
		TreesPacked: 1,
		Rounds:      stats.Rounds,
		Messages:    stats.Delivered,
		Stats:       stats,
	}, perNode, nil
}

// ApproxMinCut computes a (1+ε)-approximate minimum cut via the
// paper's sampling reduction: descend sampling levels p = 2^-ℓ
// (jumping geometrically using the observed cut) until the skeleton's
// minimum cut falls below κ(ε) = Θ(log n/ε²), find the skeleton's
// minimum cut with the exact machinery, and return that cut's true
// weight in the original graph. If the graph's own cut is already
// below κ the answer is exact.
func ApproxMinCut(g *graph.Graph, opts *Options) (*Result, error) {
	return ApproxMinCutContext(context.Background(), g, opts)
}

// ApproxMinCutContext is ApproxMinCut with cancellation; see
// MinCutContext for the contract.
func ApproxMinCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	kappa := sampling.Kappa(o.Epsilon, g.N())
	col := &collector{sides: make([]bool, g.N()), packs: make([]*packing.Result, g.N()), extra: map[string]int64{}}
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		approxProgram(nd, bfs, g, kappa, o, col)
	})
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	p := col.packs[0]
	return &Result{
		Value:        col.value,
		Side:         col.sides,
		Exact:        col.extra["level"] == 0 && col.extra["exact"] == 1,
		BestNode:     p.CutNode,
		TreesPacked:  int(col.extra["trees"]),
		Levels:       int(col.extra["level"]),
		SkeletonCut:  p.Cut,
		SamplingProb: 1 / float64(int64(1)<<col.extra["level"]),
		Rounds:       stats.Rounds,
		Messages:     stats.Delivered,
		Stats:        stats,
	}, nil
}

// BracketResult reports a bracket-tier run: a certified upper bound,
// a probabilistic lower bound, and a witness cut for the upper bound.
type BracketResult struct {
	// Lo and Hi bracket the minimum cut, λ ∈ [Lo, Hi]: Hi is the
	// tighter of the certified degree bound (Value, the weight of the
	// witness cut) and the sampling-implied bound 2^Level·O(log n); Lo
	// holds with high probability. λ ≤ Value always holds.
	Lo, Hi int64
	// Value is the weight of the witness cut behind Hi — the minimum
	// weighted degree — and Side marks that cut: the singleton of the
	// lowest-ID node attaining it (Side[v] == true for exactly that v).
	Value int64
	Side  []bool
	// BestNode is the witness node; Level the first sampling level 2^-i
	// whose skeleton disconnected (0 if none before the level cap);
	// Trials the per-level trial count used.
	BestNode graph.NodeID
	Level    int
	Trials   int
	// Rounds and Messages are the CONGEST complexity of the whole run;
	// Stats has the full accounting.
	Rounds   int
	Messages int64
	Stats    *congest.Stats
}

// BracketMinCut runs the cheap bracket tier: iterated edge sampling at
// rate 2^-i with a connectivity test per level — the first level whose
// skeleton disconnects brackets λ within an O(log n) factor (after the
// synchronous sampler of Karger [arXiv:0912.1200] as used by
// Ghaffari–Kuhn [arXiv:1305.5520]). No tree packing runs at all, so
// the whole protocol costs O(levels · (D + chunk)) rounds — a handful
// of floods and convergecasts — which makes it the front tier ahead of
// ApproxMinCut and MinCut. See sampling.Bracket for the protocol.
func BracketMinCut(g *graph.Graph, opts *Options) (*BracketResult, error) {
	return BracketMinCutContext(context.Background(), g, opts)
}

// BracketMinCutContext is BracketMinCut with cancellation; see
// MinCutContext for the contract.
func BracketMinCutContext(ctx context.Context, g *graph.Graph, opts *Options) (*BracketResult, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	var mu sync.Mutex
	var out sampling.BracketOutcome
	stats, err := o.runSim(ctx, g, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		res := sampling.Bracket(nd, bfs, sampling.BracketConfig{Seed: o.Seed}, 100)
		if nd.ID() == 0 {
			mu.Lock()
			out = res
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	side := make([]bool, g.N())
	side[out.MinDegreeNode] = true
	return &BracketResult{
		Lo:       out.Lo,
		Hi:       out.Hi,
		Value:    out.MinDegree,
		Side:     side,
		BestNode: graph.NodeID(out.MinDegreeNode),
		Level:    out.Level,
		Trials:   out.Trials,
		Rounds:   stats.Rounds,
		Messages: stats.Delivered,
		Stats:    stats,
	}, nil
}

// approxProgram is the per-node (1+ε) driver. All branch decisions are
// functions of globally known values, so every node follows the same
// level schedule in lockstep.
func approxProgram(nd *congest.Node, bfs *proto.Overlay, g *graph.Graph, kappa int64, o Options, col *collector) {
	const levelSpan = uint32(80_000_000)
	mark := nd.ID() == 0 // node 0 records the level spans for observability
	weightAt := func(level int) func(p int) int64 {
		if level == 0 {
			return nil
		}
		return func(p int) int64 {
			e := g.Edge(nd.EdgeID(p))
			return sampling.SampleWeight(o.Seed, mst.PackUV(e.U, e.V), level, e.W)
		}
	}
	// packLevel packs one sampling level under its own span, so the
	// trace attributes the descent's cost level by level.
	packLevel := func(level int, tagBase uint32) *packing.Result {
		if mark {
			nd.Mark("begin:level:" + strconv.Itoa(level))
		}
		loads := make(map[int]int64, nd.Degree())
		cur := packing.Pack(nd, bfs, treesPerLevel, loads,
			packing.Options{Weight: weightAt(level), StopBelow: kappa, SizeCap: o.SizeCap},
			tagBase, nil)
		if mark {
			nd.Mark("end:level:" + strconv.Itoa(level))
		}
		return cur
	}

	// Level 0: try the exact algorithm capped at κ. If λ <= κ this is
	// already the exact answer.
	if mark {
		nd.Mark("begin:level:0")
	}
	res, exact := packing.ExactDoubling(nd, bfs, kappa,
		packing.Options{SizeCap: o.SizeCap}, 1000)
	if mark {
		nd.Mark("end:level:0")
	}
	level, trees := 0, res.Trees
	if !exact {
		// Descend: jump to the level where the observed cut would land
		// near κ, then refine one level at a time.
		prev := res
		prevLevel := 0
		for level < 62 {
			jump := 1
			for c := prev.Cut; c > 2*kappa && jump < 40; c /= 2 {
				jump++
			}
			level = prevLevel + jump
			cur := packLevel(level, uint32(level)*levelSpan)
			trees += cur.Trees
			if !cur.Connected {
				// Oversampled: retreat one level and accept it.
				level = prevLevel + jump - 1
				if level == prevLevel {
					res = prev
					level = prevLevel
					break
				}
				cur = packLevel(level, uint32(level)*levelSpan+levelSpan/2)
				trees += cur.Trees
				if !cur.Connected {
					res = prev
					level = prevLevel
					break
				}
				res = cur
				break
			}
			if cur.Cut <= kappa {
				res = cur
				break
			}
			prev, prevLevel = cur, level
		}
	}

	side := packing.MarkSide(nd, bfs, res, 100)
	value := packing.EvaluateCut(nd, bfs, side, 200)
	col.mu.Lock()
	defer col.mu.Unlock()
	col.sides[nd.ID()] = side
	col.packs[nd.ID()] = res
	col.value = value
	col.extra["level"] = int64(level)
	col.extra["trees"] = int64(trees)
	if exact {
		col.extra["exact"] = 1
	}
}
