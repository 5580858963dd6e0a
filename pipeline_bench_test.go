package distmincut_test

import (
	"sync"
	"testing"

	"distmincut"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// BenchmarkPipelineMillion runs the paper's full exact pipeline —
// BFS overlay, distributed MST, greedy tree packing, 1-respecting
// cuts, doubling certification, side marking, and cut evaluation —
// at the engine's headline scale: 250k nodes and a million edges.
//
// The instance is two 125k-node 8-regular expanders joined by a single
// bridge, so λ = 1 with the bridge as the unique minimum cut. The
// bridge belongs to every spanning tree, so the first packed tree
// always 1-respects the minimum cut, and PracticalTau's single tree for
// λ = 1 certifies exactness at the first doubling guess: the benchmark
// exercises every pipeline stage exactly once, which is what makes full
// MinCut tractable as a repeatable scale proof. The run rides a
// reusable engine and reports the setup-ns/round-ns split alongside
// protocol complexity.
var pipelineGraph struct {
	once sync.Once
	g    *graph.Graph
}

// bridgedExpanders builds two half-node deg-regular random expanders
// joined by one unit-weight bridge: n = 2*half nodes, half*deg+1
// edges, planted minimum cut λ = 1.
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

// BenchmarkApproxMillion runs the (1+ε) serving tier on the same
// million-edge topology. This is the scale proof for the sampling reduction's
// multi-level packing: λ = 1 ≤ κ, so level 0's capped exact search
// resolves the cut exactly, and PracticalTau's λ=1 single-tree
// schedule plus ExactDoubling's early-stop certification keep the
// packing O(1) trees instead of Θ(ln n) full trees.
func BenchmarkApproxMillion(b *testing.B) {
	pipelineGraph.once.Do(func() {
		pipelineGraph.g = bridgedExpanders(125_000, 8, 9)
	})
	g := pipelineGraph.g
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	opts := &distmincut.Options{Engine: eng}
	b.ResetTimer()
	var rounds, messages, setup int64
	for i := 0; i < b.N; i++ {
		res, err := distmincut.ApproxMinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Value != 1 || !res.Exact {
			b.Fatalf("cut = %d (exact %v), want exact 1", res.Value, res.Exact)
		}
		rounds = int64(res.Rounds)
		messages = res.Messages
		setup += res.Stats.SetupNanos
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(messages), "messages")
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setup))/float64(b.N), "round-ns")
}

// BenchmarkBracketMillion runs the bracket serving tier at the same
// scale. The planted bridge disconnects the very first sampled
// skeleton, so the whole protocol is a BFS overlay, a couple of
// degree convergecasts, and a handful of short sampled floods — the
// few-rounds front tier the service serves ahead of the two packing
// tiers.
func BenchmarkBracketMillion(b *testing.B) {
	pipelineGraph.once.Do(func() {
		pipelineGraph.g = bridgedExpanders(125_000, 8, 9)
	})
	g := pipelineGraph.g
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	opts := &distmincut.Options{Engine: eng}
	b.ResetTimer()
	var rounds, messages, setup int64
	for i := 0; i < b.N; i++ {
		res, err := distmincut.BracketMinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Lo > 1 || res.Hi < 1 {
			b.Fatalf("bracket [%d, %d] misses λ = 1", res.Lo, res.Hi)
		}
		rounds = int64(res.Rounds)
		messages = res.Messages
		setup += res.Stats.SetupNanos
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(messages), "messages")
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setup))/float64(b.N), "round-ns")
}

func BenchmarkPipelineMillion(b *testing.B) {
	pipelineGraph.once.Do(func() {
		pipelineGraph.g = bridgedExpanders(125_000, 8, 9)
	})
	g := pipelineGraph.g
	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	opts := &distmincut.Options{Engine: eng}
	b.ResetTimer()
	var rounds, messages, setup int64
	for i := 0; i < b.N; i++ {
		res, err := distmincut.MinCut(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Value != 1 || !res.Exact {
			b.Fatalf("cut = %d (exact %v), want exact 1", res.Value, res.Exact)
		}
		rounds = int64(res.Rounds)
		messages = res.Messages
		setup += res.Stats.SetupNanos
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(messages), "messages")
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())-float64(setup))/float64(b.N), "round-ns")
}
