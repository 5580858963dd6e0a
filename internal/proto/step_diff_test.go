package proto

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// This file is the protocol half of the differential determinism layer:
// every step-compiled protocol (StepBFS and the step collectives) is
// run against its blocking twin on the same graphs, seeds, and engine
// configurations, and the two executions must agree bit-for-bit — same
// Stats, same mark stream, same overlays, same per-node results. The
// engine-level half (dual-path chatter/exchange programs) lives in
// internal/congest/determinism_test.go.

// diffFamilies are the generator families both paths are exercised on:
// high diameter (path), low diameter (expander), clustered
// (community), and dense (complete).
func diffFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      graph.Path(64),
		"expander":  graph.RandomRegular(64, 6, 11),
		"community": graph.PlantedCut(24, 24, 4, 0.2, 11),
		"complete":  graph.Complete(16),
	}
}

// diffConfigs are the engine configurations each family runs under:
// serial, and step activations fanned out over two (workers) and three
// (shards) shard workers.
func diffConfigs() map[string]congest.Options {
	return map[string]congest.Options{
		"serial":  {Seed: 5, DeliveryShards: -1},
		"workers": {Seed: 5, DeliveryShards: 2},
		"shards":  {Seed: 5, DeliveryShards: 3},
	}
}

// statsFingerprint is the deterministic portion of a run's Stats plus
// its normalized mark stream: everything except clock readings.
type statsFingerprint struct {
	Rounds     int
	Sent       int64
	Delivered  int64
	Wakeups    int64
	Leftover   int64
	DirtyNodes int
	Marks      string
}

func fingerprintOf(s *congest.Stats) statsFingerprint {
	marks := append([]congest.Mark(nil), s.Marks...)
	// Marks recorded in the same round by different nodes may be
	// appended in either order under parallel wake scans; canonicalize
	// by (round, node) and drop the wall-clock field.
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].Round != marks[j].Round {
			return marks[i].Round < marks[j].Round
		}
		return marks[i].Node < marks[j].Node
	})
	var b []byte
	for _, m := range marks {
		b = fmt.Appendf(b, "%s@r%d/n%d/d%d;", m.Label, m.Round, m.Node, m.Delivered)
	}
	return statsFingerprint{
		Rounds:     s.Rounds,
		Sent:       s.Sent,
		Delivered:  s.Delivered,
		Wakeups:    s.Wakeups,
		Leftover:   s.Leftover,
		DirtyNodes: s.DirtyNodes,
		Marks:      string(b),
	}
}

// overlayKey renders an overlay canonically for comparison.
func overlayKey(ov *Overlay) string {
	if ov == nil {
		return "<nil>"
	}
	return fmt.Sprintf("root=%v parent=%d children=%v depth=%d", ov.Root, ov.ParentPort, ov.ChildPorts, ov.Depth)
}

// forEachCase runs fn under every family × config combination.
func forEachCase(t *testing.T, fn func(t *testing.T, g *graph.Graph, opts congest.Options)) {
	t.Helper()
	for fam, g := range diffFamilies() {
		for cfg, opts := range diffConfigs() {
			t.Run(fam+"/"+cfg, func(t *testing.T) {
				fn(t, g, opts)
			})
		}
	}
}

// runDiff executes the blocking program and the step program on the
// same graph and options and asserts their deterministic fingerprints
// are identical. It returns both runs' stats for extra assertions.
func runDiff(t *testing.T, g *graph.Graph, opts congest.Options, blocking func(*congest.Node), step congest.StepProgram) (*congest.Stats, *congest.Stats) {
	t.Helper()
	bs, err := congest.Run(g, opts, blocking)
	if err != nil {
		t.Fatalf("blocking run: %v", err)
	}
	ss, err := congest.Run(g, opts, step)
	if err != nil {
		t.Fatalf("step run: %v", err)
	}
	if bf, sf := fingerprintOf(bs), fingerprintOf(ss); bf != sf {
		t.Fatalf("step run diverged from blocking run:\n  blocking: %+v\n  step:     %+v", bf, sf)
	}
	return bs, ss
}

// TestDiffBFS: StepBFS vs BuildBFS — identical stats, marks, and
// per-node overlays on every family × config.
func TestDiffBFS(t *testing.T) {
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		var mu sync.Mutex
		blockingOv := make([]*Overlay, g.N())
		blocking := func(nd *congest.Node) {
			ov := BuildBFS(nd, 0, 1)
			mu.Lock()
			blockingOv[nd.ID()] = ov
			mu.Unlock()
		}
		bfs := NewStepBFS(0, 1)
		runDiff(t, g, opts, blocking, bfs)
		for v := 0; v < g.N(); v++ {
			if got, want := overlayKey(bfs.NodeOverlay(graph.NodeID(v))), overlayKey(blockingOv[v]); got != want {
				t.Fatalf("node %d overlay: step %q, blocking %q", v, got, want)
			}
		}
	})
}

// TestDiffFlood: BFS+Flood chained — the step pair must match the
// blocking pair exactly, including each node's received stream.
func TestDiffFlood(t *testing.T) {
	items := []Item{{A: 5, B: 50}, {A: 6, C: 60}, {A: 7, D: 70}}
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		var mu sync.Mutex
		blockingGot := make([][]Item, g.N())
		blocking := func(nd *congest.Node) {
			ov := BuildBFS(nd, 0, 1)
			var in []Item
			if ov.Root {
				in = items
			}
			out := Flood(nd, ov, 40, in)
			mu.Lock()
			blockingGot[nd.ID()] = out
			mu.Unlock()
		}
		bfs := NewStepBFS(0, 1)
		flood := NewStepFlood(bfs, 40, items)
		runDiff(t, g, opts, blocking, congest.NewStepSeq(bfs, flood))
		for v := 0; v < g.N(); v++ {
			if got, want := flood.Got(graph.NodeID(v)), blockingGot[v]; !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d stream: step %v, blocking %v", v, got, want)
			}
		}
	})
}

// TestDiffConvergeBroadcast: BFS+ConvergeBroadcast chained, with every
// node's global total compared.
func TestDiffConvergeBroadcast(t *testing.T) {
	value := func(nd *congest.Node) int64 { return int64(nd.ID())*3 + 1 }
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		var mu sync.Mutex
		blockingTotal := make([]int64, g.N())
		blocking := func(nd *congest.Node) {
			ov := BuildBFS(nd, 0, 1)
			total := ConvergeBroadcast(nd, ov, 20, value(nd), Sum)
			mu.Lock()
			blockingTotal[nd.ID()] = total
			mu.Unlock()
		}
		bfs := NewStepBFS(0, 1)
		cb := NewStepConvergeBroadcast(bfs, 20, value, Sum)
		runDiff(t, g, opts, blocking, congest.NewStepSeq(bfs, cb))
		for v := 0; v < g.N(); v++ {
			if got, want := cb.Total(graph.NodeID(v)), blockingTotal[v]; got != want {
				t.Fatalf("node %d total: step %d, blocking %d", v, got, want)
			}
		}
	})
}

// TestDiffConvergeItemVec: BFS+ConvergeItemVec chained, comparing every
// node's per-slot subtree partials.
func TestDiffConvergeItemVec(t *testing.T) {
	mine := func(nd *congest.Node) []Item {
		id := int64(nd.ID())
		return []Item{{A: id, B: 1}, {A: id * id, B: 1}, {A: -id, B: 1}}
	}
	combine := func(slot int, a, b Item) Item {
		return Item{A: a.A + b.A, B: a.B + b.B, C: a.C + b.C, D: a.D + b.D}
	}
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		var mu sync.Mutex
		blockingAcc := make([][]Item, g.N())
		blocking := func(nd *congest.Node) {
			ov := BuildBFS(nd, 0, 1)
			acc, _ := ConvergeItemVec(nd, ov, 30, mine(nd), combine)
			mu.Lock()
			blockingAcc[nd.ID()] = acc
			mu.Unlock()
		}
		bfs := NewStepBFS(0, 1)
		civ := NewStepConvergeItemVec(bfs, 30, mine, combine)
		runDiff(t, g, opts, blocking, congest.NewStepSeq(bfs, civ))
		for v := 0; v < g.N(); v++ {
			if got, want := civ.Acc(graph.NodeID(v)), blockingAcc[v]; !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d partials: step %v, blocking %v", v, got, want)
			}
		}
	})
}

// TestDiffKeyedSum: BFS+KeyedSum chained, comparing every node's totals
// map. KeyedSum exercises the slot-pipelined in-order child receive and
// embeds a flood, so it is the most demanding port.
func TestDiffKeyedSum(t *testing.T) {
	keys := []int64{3, 7, 11, 20}
	mine := func(nd *congest.Node) map[int64]int64 {
		m := map[int64]int64{}
		for _, k := range keys {
			if int64(nd.ID())%k == 0 {
				m[k] = int64(nd.ID()) + k
			}
		}
		return m
	}
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		var mu sync.Mutex
		blockingRes := make([]map[int64]int64, g.N())
		blocking := func(nd *congest.Node) {
			ov := BuildBFS(nd, 0, 1)
			res := KeyedSum(nd, ov, 70, keys, mine(nd))
			mu.Lock()
			blockingRes[nd.ID()] = res
			mu.Unlock()
		}
		bfs := NewStepBFS(0, 1)
		ks := NewStepKeyedSum(bfs, 70, keys, mine)
		runDiff(t, g, opts, blocking, congest.NewStepSeq(bfs, ks))
		for v := 0; v < g.N(); v++ {
			if got, want := ks.Sums(graph.NodeID(v)), blockingRes[v]; !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d sums: step %v, blocking %v", v, got, want)
			}
		}
	})
}

// TestDiffFixedOverlays: step collectives also run over precomputed
// overlays (no BFS phase), matching the blocking collective run over
// the same NewOverlay-built trees.
func TestDiffFixedOverlays(t *testing.T) {
	g := graph.Path(32)
	// Orient the path as a tree rooted at node 0 by construction.
	overlays := make(FixedOverlays, g.N())
	buildOv := func(nd *congest.Node) *Overlay {
		parent, children := -1, []int(nil)
		for p := 0; p < nd.Degree(); p++ {
			if nd.Peer(p) < nd.ID() {
				parent = p
			} else {
				children = append(children, p)
			}
		}
		return NewOverlay(parent, children, int(nd.ID()))
	}
	var mu sync.Mutex
	blockingTotal := make([]int64, g.N())
	blocking := func(nd *congest.Node) {
		ov := buildOv(nd)
		mu.Lock()
		overlays[nd.ID()] = ov
		mu.Unlock()
		total := ConvergeBroadcast(nd, ov, 20, int64(nd.ID()), Sum)
		mu.Lock()
		blockingTotal[nd.ID()] = total
		mu.Unlock()
	}
	opts := congest.Options{Seed: 5}
	bs, err := congest.Run(g, opts, blocking)
	if err != nil {
		t.Fatal(err)
	}
	cb := NewStepConvergeBroadcast(overlays, 20, func(nd *congest.Node) int64 { return int64(nd.ID()) }, Sum)
	ss, err := congest.Run(g, opts, cb)
	if err != nil {
		t.Fatal(err)
	}
	if bf, sf := fingerprintOf(bs), fingerprintOf(ss); bf != sf {
		t.Fatalf("fixed-overlay step run diverged:\n  blocking: %+v\n  step:     %+v", bf, sf)
	}
	for v := 0; v < g.N(); v++ {
		if got, want := cb.Total(graph.NodeID(v)), blockingTotal[v]; got != want {
			t.Fatalf("node %d total: step %d, blocking %d", v, got, want)
		}
	}
}

// TestDiffWarmEngineRerun: a retained engine re-running a step protocol
// chain must reproduce the fresh run exactly — InitRun and the engine's
// warm-path reset leave no residue in the program state slabs.
func TestDiffWarmEngineRerun(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	keys := []int64{3, 7, 11, 20}
	mine := func(nd *congest.Node) map[int64]int64 {
		return map[int64]int64{keys[int(nd.ID())%len(keys)]: int64(nd.ID())}
	}
	bfs := NewStepBFS(0, 1)
	ks := NewStepKeyedSum(bfs, 70, keys, mine)
	prog := congest.NewStepSeq(bfs, ks)
	e := congest.NewEngine(congest.Options{Seed: 5})
	defer e.Close()
	var first statsFingerprint
	var firstSums map[int64]int64
	for rep := 0; rep < 3; rep++ {
		stats, err := e.Run(g, prog)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		fp := fingerprintOf(stats)
		sums := ks.Sums(0)
		if rep == 0 {
			first, firstSums = fp, sums
			continue
		}
		if fp != first {
			t.Fatalf("rep %d fingerprint %+v != first %+v", rep, fp, first)
		}
		if !reflect.DeepEqual(sums, firstSums) {
			t.Fatalf("rep %d sums %v != first %v", rep, sums, firstSums)
		}
	}
}
