package packing_test

import (
	"sync"
	"testing"

	"distmincut/internal/baseline"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/packing"
	"distmincut/internal/proto"
	"distmincut/internal/verify"
)

// runExact runs the exact doubling algorithm distributedly and returns
// the common result plus each node's side bit and the evaluated true
// cut weight.
func runExact(t *testing.T, g *graph.Graph, seed int64) (*packing.Result, []bool, int64, *congest.Stats) {
	t.Helper()
	var mu sync.Mutex
	results := make([]*packing.Result, g.N())
	sides := make([]bool, g.N())
	var evaluated int64
	stats, err := congest.Run(g, congest.Options{Seed: seed}, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		res, exact := packing.ExactDoubling(nd, bfs, 0, packing.Options{}, 1000)
		if !exact {
			panic("packing: expected certified-exact result")
		}
		side := packing.MarkSide(nd, bfs, res, 900)
		ev := packing.EvaluateCut(nd, bfs, side, 950)
		mu.Lock()
		results[nd.ID()] = res
		sides[nd.ID()] = side
		evaluated = ev
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("packing left %d unconsumed messages", stats.Leftover)
	}
	for v := 1; v < g.N(); v++ {
		if results[v].Cut != results[0].Cut || results[v].CutNode != results[0].CutNode ||
			results[v].Trees != results[0].Trees {
			t.Fatalf("node %d disagrees on result", v)
		}
	}
	return results[0], sides, evaluated, stats
}

func TestExactMatchesStoerWagner(t *testing.T) {
	workloads := map[string]*graph.Graph{
		"cycle":      graph.Cycle(16),
		"planted1":   graph.PlantedCut(10, 12, 1, 0.5, 2),
		"planted2":   graph.PlantedCut(10, 12, 2, 0.5, 3),
		"planted3":   graph.PlantedCut(12, 10, 3, 0.6, 4),
		"planted4":   graph.PlantedCut(10, 10, 4, 0.7, 5),
		"barbell":    graph.Barbell(6, 2),
		"cliquepath": graph.CliquePath(3, 5, 2),
		"hypercube":  graph.Hypercube(3),
		"weighted":   graph.AssignWeights(graph.Cycle(12), 1, 5, 6),
		"star":       graph.Star(9),
	}
	for name, g := range workloads {
		t.Run(name, func(t *testing.T) {
			want, _, err := baseline.StoerWagner(g)
			if err != nil {
				t.Fatal(err)
			}
			res, sides, evaluated, _ := runExact(t, g, 7)
			if res.Cut != want {
				t.Fatalf("distributed exact min cut %d, Stoer–Wagner %d", res.Cut, want)
			}
			// The marked side must be a real cut of exactly that weight.
			w, err := verify.CutSides(g, sides)
			if err != nil {
				t.Fatalf("marked side invalid: %v", err)
			}
			if w != want {
				t.Fatalf("marked side weighs %d, want %d", w, want)
			}
			if evaluated != want {
				t.Fatalf("EvaluateCut returned %d, want %d", evaluated, want)
			}
		})
	}
}

func TestSequentialPackingFindsMinCut(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.PlantedCut(14, 14, 2, 0.5, seed)
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := packing.GreedySequential(g, packing.PracticalTau(want, g.N()))
		if err != nil {
			t.Fatal(err)
		}
		got, idx := packing.BestOverTrees(g, trees)
		if got != want {
			t.Fatalf("seed %d: packing best %d (tree %d), want %d", seed, got, idx, want)
		}
	}
}

func TestTreesUntilHitWithinPracticalBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.PlantedCut(12, 12, 3, 0.6, seed+10)
		lambda, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		bound := packing.PracticalTau(lambda, g.N())
		hit, err := packing.TreesUntilHit(g, lambda, bound)
		if err != nil {
			t.Fatal(err)
		}
		if hit > bound {
			t.Fatalf("seed %d: needed %d trees, practical bound %d", seed, hit, bound)
		}
	}
}

func TestTauPolicies(t *testing.T) {
	if packing.TheoreticalTau(1, 100) < packing.PracticalTau(1, 100) {
		t.Fatal("theoretical bound should dominate at lambda=1")
	}
	if packing.PracticalTau(2, 100) <= packing.PracticalTau(1, 100) {
		t.Fatal("tau must grow with lambda")
	}
	if packing.TheoreticalTau(100, 1000) != 1e7 {
		t.Fatal("theoretical bound must clamp")
	}
}

func TestPackStopBelow(t *testing.T) {
	g := graph.Star(12) // min cut 1; the first tree already 1-respects it
	var trees int
	var mu sync.Mutex
	_, err := congest.Run(g, congest.Options{}, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		loads := make(map[int]int64)
		res := packing.Pack(nd, bfs, 10, loads, packing.Options{StopBelow: 1}, 1000, nil)
		mu.Lock()
		trees = res.Trees
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if trees != 1 {
		t.Fatalf("StopBelow did not stop early: packed %d trees", trees)
	}
}
