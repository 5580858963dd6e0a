package distmincut

import (
	"testing"

	"distmincut/internal/graph"
)

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	d := o.withDefaults()
	if d.Seed != 1 || d.Epsilon != 0.5 || d.MaxLambda != 1<<20 {
		t.Fatalf("nil options defaults wrong: %+v", d)
	}
	bad := &Options{Epsilon: 3}
	if bad.withDefaults().Epsilon != 0.5 {
		t.Fatal("epsilon >= 1 must fall back")
	}
	keep := &Options{Seed: 9, Epsilon: 0.25, MaxLambda: 64}
	k := keep.withDefaults()
	if k.Seed != 9 || k.Epsilon != 0.25 || k.MaxLambda != 64 {
		t.Fatalf("explicit options clobbered: %+v", k)
	}
}

func TestGraphReexport(t *testing.T) {
	g := NewGraph(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(0, 2, 1)
	g.SortAdjacency()
	res, err := MinCut(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Fatalf("triangle min cut = %d, want 3", res.Value)
	}
	// The alias really is the internal type.
	var _ *graph.Graph = g
}

func TestMinCutMaxLambdaFallback(t *testing.T) {
	// A weighted cycle with λ = 40 but MaxLambda = 4: the exact search
	// must give up gracefully with Exact=false and a valid upper bound.
	g := NewGraph(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%6), 20)
	}
	g.SortAdjacency()
	res, err := MinCut(g, &Options{MaxLambda: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("certified exact despite MaxLambda cap")
	}
	if res.Value < 40 {
		t.Fatalf("reported value %d below the true min cut 40 — not a cut", res.Value)
	}
}

func TestOneRespectingPerNodeAgainstValue(t *testing.T) {
	g := NewGraph(5)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 4, 3)
	g.MustAddEdge(4, 0, 1)
	g.SortAdjacency()
	res, perNode, err := OneRespectingCut(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// On a cycle, the best 1-respecting cut is exactly the min cut
	// (both cycle edges closing the cut are counted): λ = 1+3 = 4.
	if res.Value != 4 {
		t.Fatalf("cycle 1-respecting best = %d, want 4", res.Value)
	}
	if perNode[0] != 0 {
		t.Fatalf("root C(v↓) = %d, want 0", perNode[0])
	}
}
