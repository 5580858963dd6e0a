package harness

import (
	"fmt"
	"math"
	"sync"

	"distmincut"
	"distmincut/internal/baseline"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/packing"
	"distmincut/internal/partition"
	"distmincut/internal/proto"
	"distmincut/internal/tree"
	"distmincut/internal/verify"
)

// E1Correctness — Theorem 2.1: the distributed C(v↓) of every node on
// every workload matches the sequential oracle (Lemma 2.2) exactly.
func E1Correctness(cfg Config) *Table {
	type family struct {
		name string
		gen  func(seed int64) *graph.Graph
	}
	families := []family{
		{"G(n,p) sparse", func(s int64) *graph.Graph { return graph.GNP(64, 0.08, s) }},
		{"G(n,p) weighted", func(s int64) *graph.Graph {
			return graph.AssignWeights(graph.GNP(48, 0.15, s), 1, 50, s+1)
		}},
		{"torus", func(s int64) *graph.Graph { return graph.Torus(6, 7) }},
		{"planted cut", func(s int64) *graph.Graph { return graph.PlantedCut(24, 24, 3, 0.4, s) }},
		{"clique-path", func(s int64) *graph.Graph { return graph.CliquePath(4, 8, 2) }},
		{"hypercube", func(s int64) *graph.Graph { return graph.Hypercube(6) }},
	}
	instances := 5
	if cfg.Quick {
		families = families[:3]
		instances = 2
	}
	t := &Table{
		ID:     "E1",
		Title:  "Theorem 2.1 correctness: distributed C(v↓) vs sequential oracle",
		Header: []string{"family", "n", "m", "instances", "nodes checked", "mismatches"},
	}
	for _, f := range families {
		var checked, mismatches, n, m int
		for i := 0; i < instances; i++ {
			g := f.gen(cfg.seed() + int64(i)*17)
			n, m = g.N(), g.M()
			_, _, parents, err := pipelineOnce(g, cfg.seed()+int64(i), cfg)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s: run error: %v", f.name, err))
				continue
			}
			tr, err := tree.New(0, parents, nil)
			if err != nil {
				mismatches++
				continue
			}
			q := verify.OneRespectOracle(g, tr)
			outs := collectCuts(g, cfg.seed()+int64(i), cfg)
			for v := 0; v < g.N(); v++ {
				checked++
				if outs[v] != q.Cut[v] {
					mismatches++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			f.name, itoa(int64(n)), itoa(int64(m)), itoa(int64(instances)),
			itoa(int64(checked)), itoa(int64(mismatches)),
		})
	}
	t.Notes = append(t.Notes, "Paper claim: every node v learns C(v↓) (Theorem 2.1). Expected mismatches: 0.")
	return t
}

// collectCuts reruns the pipeline collecting every node's C(v↓).
func collectCuts(g *graph.Graph, seed int64, cfg Config) []int64 {
	outs := make([]int64, g.N())
	runPipelineCollect(g, seed, cfg, func(v graph.NodeID, cut int64) { outs[v] = cut })
	return outs
}

// E2Scaling — rounds of the full Theorem 2.1 pipeline scale as
// Õ(√n + D), not linearly in n.
func E2Scaling(cfg Config) *Table {
	sides := []int{8, 12, 16, 24}
	gnpSizes := []int{64, 128, 256, 512}
	if cfg.Quick {
		sides = []int{8, 12}
		gnpSizes = []int{64, 128}
	}
	t := &Table{
		ID:     "E2",
		Title:  "Theorem 2.1 round complexity: rounds vs Õ(√n + D)",
		Header: []string{"family", "n", "D", "rounds", "messages", "rounds/(√n+D)", "centralize rounds (Θ(m+D))"},
	}
	addRow := func(name string, g *graph.Graph) {
		d := graph.Diameter(g)
		stats, _, _, err := pipelineOnce(g, cfg.seed(), cfg)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", name, err))
			return
		}
		_, central, err := baseline.Centralize(g, cfg.seed())
		centralRounds := "-"
		if err == nil {
			centralRounds = itoa(int64(central.Rounds))
		}
		norm := math.Sqrt(float64(g.N())) + float64(d)
		t.Rows = append(t.Rows, []string{
			name, itoa(int64(g.N())), itoa(int64(d)), itoa(int64(stats.Rounds)),
			itoa(stats.Delivered), f2(float64(stats.Rounds) / norm), centralRounds,
		})
	}
	for _, s := range sides {
		addRow(fmt.Sprintf("torus %dx%d", s, s), graph.Torus(s, s))
	}
	for _, n := range gnpSizes {
		addRow(fmt.Sprintf("G(%d, 8/n)", n), graph.GNP(n, 8/float64(n), cfg.seed()+3))
	}
	dense := []int{96, 192}
	if cfg.Quick {
		dense = dense[:1]
	}
	for _, n := range dense {
		addRow(fmt.Sprintf("G(%d, 0.5) dense", n), graph.GNP(n, 0.5, cfg.seed()+4))
	}
	t.Notes = append(t.Notes,
		"Paper claim: Õ(√n + D) rounds. The normalized column should stay near-constant (up to polylog) while n grows 4–8x; a linear-round algorithm would double it with every doubling of n.",
		"The last column is the trivial centralize-and-solve baseline at Θ(m + D) rounds: on sparse graphs at this scale its small constant wins, but it scales with m — on the dense rows the sublinear algorithm already beats it, and the gap widens as m/√n grows (the regime the paper targets).")
	return t
}

// E3Exact — the main theorem: exact min cut in Õ((√n+D)·poly(λ)).
func E3Exact(cfg Config) *Table {
	lambdas := []int{1, 2, 3, 4, 5, 6}
	if cfg.Quick {
		lambdas = []int{1, 2, 3}
	}
	t := &Table{
		ID:     "E3",
		Title:  "Exact algorithm: value vs Stoer–Wagner, cost vs λ",
		Header: []string{"λ (planted)", "n", "exact?", "value", "Stoer–Wagner", "trees packed", "rounds", "rounds/(√n+D)"},
	}
	for _, lam := range lambdas {
		g := graph.PlantedCut(24, 24, lam, 0.5, cfg.seed()+int64(lam))
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			continue
		}
		res, err := distmincut.MinCut(g, &distmincut.Options{Seed: cfg.seed()})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("λ=%d: %v", lam, err))
			continue
		}
		d := graph.Diameter(g)
		norm := math.Sqrt(float64(g.N())) + float64(d)
		t.Rows = append(t.Rows, []string{
			itoa(int64(lam)), itoa(int64(g.N())), fmt.Sprintf("%v", res.Exact),
			itoa(res.Value), itoa(want), itoa(int64(res.TreesPacked)),
			itoa(int64(res.Rounds)), f2(float64(res.Rounds) / norm),
		})
	}
	t.Notes = append(t.Notes,
		"Paper claim: exact λ in Õ((√n + D)·poly(λ)) — value must equal Stoer–Wagner with exact?=true, and rounds grow with λ only through the packed tree count.")
	return t
}

// E4Approx — (1+ε)-approximation quality and cost vs ε.
func E4Approx(cfg Config) *Table {
	epss := []float64{0.5, 0.25, 0.125}
	n := 40
	if cfg.Quick {
		epss = []float64{0.5}
		n = 24
	}
	t := &Table{
		ID:     "E4",
		Title:  "(1+ε)-approximation: measured ratio and cost vs ε",
		Header: []string{"ε", "workload", "λ", "value", "ratio", "levels", "trees", "rounds"},
	}
	for _, eps := range epss {
		// Weighted complete graph: λ large enough to force sampling at
		// every ε in the sweep.
		g := graph.AssignWeights(graph.Complete(n), 8, 12, cfg.seed()+7)
		lambda, _, err := baseline.StoerWagner(g)
		if err != nil {
			continue
		}
		res, err := distmincut.ApproxMinCut(g, &distmincut.Options{Seed: cfg.seed(), Epsilon: eps})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("ε=%.3f: %v", eps, err))
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", eps), fmt.Sprintf("weighted K%d", n), itoa(lambda),
			itoa(res.Value), f2(float64(res.Value) / float64(lambda)),
			itoa(int64(res.Levels)), itoa(int64(res.TreesPacked)), itoa(int64(res.Rounds)),
		})
	}
	t.Notes = append(t.Notes,
		"Paper claim: (1+ε)-approximation in Õ((√n+D)/poly(ε)). The measured ratio must stay ≤ 1+ε; rounds grow as ε shrinks (deeper κ, more trees).")
	return t
}

// E5Baselines — the paper's §1 comparison: this algorithm (1+ε) vs
// Ghaffari–Kuhn (2+ε, emulated) vs Su (concurrent work, distributed).
func E5Baselines(cfg Config) *Table {
	type workload struct {
		name string
		g    *graph.Graph
	}
	workloads := []workload{
		{"planted λ=3", graph.PlantedCut(20, 20, 3, 0.5, cfg.seed())},
		{"weighted K32", graph.AssignWeights(graph.Complete(32), 8, 12, cfg.seed()+1)},
		{"torus 8x8", graph.Torus(8, 8)},
	}
	if cfg.Quick {
		workloads = workloads[:2]
	}
	const eps = 0.5
	t := &Table{
		ID:     "E5",
		Title:  "Comparison at ε=0.5: this paper (1+ε) vs GK13 (2+ε, emulated) vs Su14",
		Header: []string{"workload", "λ", "ours", "ours exact?", "ours rounds", "GK13 value", "GK13 rounds (emul.)", "Su value", "Su rounds"},
	}
	for _, w := range workloads {
		lambda, _, err := baseline.StoerWagner(w.g)
		if err != nil {
			continue
		}
		ours, err := distmincut.ApproxMinCut(w.g, &distmincut.Options{Seed: cfg.seed(), Epsilon: eps})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s ours: %v", w.name, err))
			continue
		}
		gkVal, gkRounds, err := baseline.GhaffariKuhnEmulated(w.g, eps)
		if err != nil {
			continue
		}
		suVal, suRounds := runSu(w.g, eps, cfg.seed(), cfg)
		t.Rows = append(t.Rows, []string{
			w.name, itoa(lambda),
			itoa(ours.Value), fmt.Sprintf("%v", ours.Exact), itoa(int64(ours.Rounds)),
			itoa(gkVal), itoa(int64(gkRounds)),
			itoa(suVal), itoa(int64(suRounds)),
		})
	}
	t.Notes = append(t.Notes,
		"Paper claim: (1+ε) beats GK13's (2+ε) at the same Õ(√n+D) round order; Su matches the approximation but (unlike ours) cannot certify exactness on small cuts. GK13 rounds are billed from their published bound (DESIGN.md §4).")
	return t
}

func runSu(g *graph.Graph, eps float64, seed int64, cfg Config) (int64, int) {
	var mu sync.Mutex
	var value int64
	stats, err := runSim(g, congest.Options{Seed: seed}, func(nd *congest.Node) {
		bfs := proto.BuildBFS(nd, 0, 1)
		r := baseline.Su(nd, bfs, g, eps, seed+5, 8, 1000)
		mu.Lock()
		value = r.Value // identical at every node
		mu.Unlock()
	})
	if err != nil {
		return -1, -1
	}
	return value, stats.Rounds
}

// E6Diameter — both terms of √n + D are real: fix n, grow D.
func E6Diameter(cfg Config) *Table {
	configs := []struct{ cliques, size int }{
		{2, 64}, {4, 32}, {8, 16}, {16, 8},
	}
	if cfg.Quick {
		configs = configs[:3]
		for i := range configs {
			configs[i].size /= 2
		}
	}
	t := &Table{
		ID:     "E6",
		Title:  "Diameter dependence at fixed n (clique paths): rounds track √n + D",
		Header: []string{"cliques×size", "n", "D", "rounds", "rounds/(√n+D)"},
	}
	for _, c := range configs {
		g := graph.CliquePath(c.cliques, c.size, 2)
		d := graph.Diameter(g)
		stats, _, _, err := pipelineOnce(g, cfg.seed(), cfg)
		if err != nil {
			continue
		}
		norm := math.Sqrt(float64(g.N())) + float64(d)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d×%d", c.cliques, c.size), itoa(int64(g.N())), itoa(int64(d)),
			itoa(int64(stats.Rounds)), f2(float64(stats.Rounds) / norm),
		})
	}
	t.Notes = append(t.Notes,
		"Lower bound context: Ω̃(√n + D) [Das Sarma et al.]. With n fixed, rounds must grow with D but the normalized column stays near-constant.")
	return t
}

// E7Packing — Thorup's theorem in practice: trees until some tree
// 1-respects a minimum cut, vs the practical and theoretical bounds.
func E7Packing(cfg Config) *Table {
	lambdas := []int{1, 2, 3, 4, 5}
	seeds := 8
	if cfg.Quick {
		lambdas = []int{1, 2, 3}
		seeds = 3
	}
	t := &Table{
		ID:     "E7",
		Title:  "Tree packing: trees until a tree 1-respects a min cut",
		Header: []string{"λ", "n", "mean trees", "max trees", "practical τ", "Thorup τ (λ⁷log³n)", "hits within practical τ"},
	}
	for _, lam := range lambdas {
		g0 := graph.PlantedCut(20, 20, lam, 0.5, cfg.seed())
		var sum, maxv, hits int
		for s := 0; s < seeds; s++ {
			g := graph.PlantedCut(20, 20, lam, 0.5, cfg.seed()+int64(100+s))
			lambda, _, err := baseline.StoerWagner(g)
			if err != nil {
				continue
			}
			bound := packing.PracticalTau(lambda, g.N())
			hit, err := packing.TreesUntilHit(g, lambda, bound)
			if err != nil {
				continue
			}
			sum += hit
			if hit > maxv {
				maxv = hit
			}
			if hit <= bound {
				hits++
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(int64(lam)), itoa(int64(g0.N())), f2(float64(sum) / float64(seeds)), itoa(int64(maxv)),
			itoa(int64(packing.PracticalTau(int64(lam), g0.N()))),
			itoa(int64(packing.TheoreticalTau(int64(lam), g0.N()))),
			fmt.Sprintf("%d/%d", hits, seeds),
		})
	}
	t.Notes = append(t.Notes,
		"Thorup's theorem guarantees a hit within Θ(λ⁷log³n) trees; the measured requirement is far smaller, justifying the practical τ = 3·λ·ln n policy (ablated here).")
	return t
}

// E8Figure1 — the paper's only figure: fragments, merging nodes and
// T'_F for the Figure-1 example tree, plus the O(√n) structural bounds
// on random trees.
func E8Figure1(cfg Config) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Figure 1 structures: fragments, merging nodes, T'_F",
		Header: []string{"tree", "n", "s", "fragments (≤ n/s+1)", "max frag depth (≤ s)", "merging nodes", "|T'_F|"},
	}
	addTree := func(name string, tr *tree.Tree, s int) {
		d := partition.Split(tr, s)
		sk := partition.BuildSkeleton(tr, d)
		maxDepth := 0
		for v := 0; v < tr.N(); v++ {
			depth := 0
			for u := graph.NodeID(v); d.RootOf[u] != u; u = tr.Parent(u) {
				depth++
			}
			if depth > maxDepth {
				maxDepth = depth
			}
		}
		t.Rows = append(t.Rows, []string{
			name, itoa(int64(tr.N())), itoa(int64(d.S)),
			fmt.Sprintf("%d (bound %d)", len(d.Roots), tr.N()/d.S+1),
			fmt.Sprintf("%d (bound %d)", maxDepth, d.S),
			itoa(int64(len(sk.Merging))), itoa(int64(len(sk.Members))),
		})
	}
	// The paper's 16-node example (Figure 1a shape).
	fig, err := tree.New(0, []graph.NodeID{-1, 0, 1, 2, 0, 2, 3, 4, 5, 5, 6, 6, 7, 7, 7, 4}, nil)
	if err == nil {
		addTree("Figure 1 example", fig, 4)
	}
	sizes := []int{64, 256}
	if cfg.Quick {
		sizes = []int{64}
	}
	for _, n := range sizes {
		g := graph.RandomTree(n, cfg.seed()+2)
		tr, err := tree.FromGraphTree(g, 0)
		if err != nil {
			continue
		}
		addTree(fmt.Sprintf("random tree n=%d", n), tr, 0)
	}
	t.Notes = append(t.Notes,
		"Reproduces the decomposition Figure 1 illustrates: O(√n) fragments of O(√n) depth, merging nodes where fragment-bearing branches meet, and the skeleton tree T'_F over fragment roots + merging nodes. cmd/figure1 renders the example graphically.")
	return t
}

// E9Ablation — design choices: fragment size s (√n should minimize
// rounds) and CONGEST pipelining vs unbounded bandwidth.
func E9Ablation(cfg Config) *Table {
	side := 16
	if cfg.Quick {
		side = 8
	}
	g := graph.Torus(side, side)
	n := g.N()
	sqrtN := int(math.Sqrt(float64(n)))
	caps := []int{2, sqrtN / 2, sqrtN, 2 * sqrtN, n / 4}
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("Ablations on torus %dx%d: fragment size cap and pipelining", side, side),
		Header: []string{"variant", "rounds", "messages", "value ok"},
	}
	lambda, _, err := baseline.StoerWagner(g)
	if err != nil {
		return t
	}
	for _, c := range caps {
		if c < 1 {
			continue
		}
		res, err := distmincut.MinCut(g, &distmincut.Options{Seed: cfg.seed(), SizeCap: c})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("cap %d: %v", c, err))
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("s=%d (√n=%d)", c, sqrtN), itoa(int64(res.Rounds)), itoa(res.Messages),
			fmt.Sprintf("%v", res.Value == lambda),
		})
	}
	res, err := distmincut.MinCut(g, &distmincut.Options{Seed: cfg.seed(), Unbounded: true})
	if err == nil {
		t.Rows = append(t.Rows, []string{
			"unbounded bandwidth (LOCAL)", itoa(int64(res.Rounds)), itoa(res.Messages),
			fmt.Sprintf("%v", res.Value == lambda),
		})
	}
	t.Notes = append(t.Notes,
		"The paper's s=√n balances the n/s fragment count against the s fragment diameter; extreme caps must cost more rounds. The unbounded-bandwidth run shows how much of the cost is CONGEST pipelining.")
	return t
}
