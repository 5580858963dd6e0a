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
// BuildBFS and the collectives run on the same graphs and seeds under
// serial and sharded delivery, and every run must agree bit-for-bit
// with the serial run — same Stats, same mark stream, same per-node
// results — and its results must equal a centralized computation of
// the same quantity. The engine-level half lives in
// internal/congest/determinism_test.go.

// diffFamilies are the generator families the protocols are exercised
// on: high diameter (path), low diameter (expander), clustered
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
// serial, and delivery fanned out over two (workers) and three
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
	// appended in either order; canonicalize by (round, node) and drop
	// the wall-clock field.
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

// collect runs prog on every node of g under opts and returns the
// run's fingerprint and each node's result.
func collect[R any](t *testing.T, g *graph.Graph, opts congest.Options, prog func(*congest.Node) R) (statsFingerprint, []R) {
	t.Helper()
	var mu sync.Mutex
	res := make([]R, g.N())
	stats, err := congest.Run(g, opts, func(nd *congest.Node) {
		r := prog(nd)
		mu.Lock()
		res[nd.ID()] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("run (shards %d): %v", opts.DeliveryShards, err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("run (shards %d) left %d unconsumed messages", opts.DeliveryShards, stats.Leftover)
	}
	return fingerprintOf(stats), res
}

// runDiff runs prog under opts and under serial delivery with the same
// seed, asserts the two runs' fingerprints and per-node results are
// identical, and returns the per-node results.
func runDiff[R any](t *testing.T, g *graph.Graph, opts congest.Options, prog func(*congest.Node) R) []R {
	t.Helper()
	serial := opts
	serial.DeliveryShards = -1
	sf, sr := collect(t, g, serial, prog)
	f, r := collect(t, g, opts, prog)
	if f != sf {
		t.Fatalf("run diverged from serial run:\n  serial: %+v\n  run:    %+v", sf, f)
	}
	if !reflect.DeepEqual(r, sr) {
		t.Fatalf("per-node results diverged from serial run:\n  serial: %v\n  run:    %v", sr, r)
	}
	return r
}

// oracleBFS computes, centrally, the overlay BuildBFS(root) gives every
// node: depth is the hop distance, the parent is the lowest port one
// level up, and the children are the neighbors that chose this node.
func oracleBFS(g *graph.Graph, root graph.NodeID) []*Overlay {
	dist, _ := graph.BFS(g, root)
	parent := make([]graph.NodeID, g.N())
	parentPort := make([]int, g.N())
	for v := range g.N() {
		parent[v], parentPort[v] = -1, -1
		if graph.NodeID(v) == root {
			continue
		}
		for p, h := range g.Adj(graph.NodeID(v)) {
			if dist[h.Peer] == dist[v]-1 {
				parent[v], parentPort[v] = h.Peer, p
				break
			}
		}
	}
	ovs := make([]*Overlay, g.N())
	for v := range g.N() {
		var children []int
		for p, h := range g.Adj(graph.NodeID(v)) {
			if parent[h.Peer] == graph.NodeID(v) {
				children = append(children, p)
			}
		}
		ovs[v] = NewOverlay(parentPort[v], children, dist[v])
	}
	return ovs
}

// subtree lists the nodes of v's subtree in the overlay forest ovs.
func subtree(g *graph.Graph, ovs []*Overlay, v graph.NodeID) []graph.NodeID {
	out := []graph.NodeID{v}
	for i := 0; i < len(out); i++ {
		u := out[i]
		for _, p := range ovs[u].ChildPorts {
			out = append(out, g.Adj(u)[p].Peer)
		}
	}
	return out
}

// TestDiffBFS: BuildBFS agrees with the serial run and with the
// centrally computed BFS tree on every family × config.
func TestDiffBFS(t *testing.T) {
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		got := runDiff(t, g, opts, func(nd *congest.Node) *Overlay {
			return BuildBFS(nd, 0, 1)
		})
		want := oracleBFS(g, 0)
		for v := range g.N() {
			if gk, wk := overlayKey(got[v]), overlayKey(want[v]); gk != wk {
				t.Fatalf("node %d overlay: got %q, want %q", v, gk, wk)
			}
		}
	})
}

// TestDiffFlood: BFS+Flood chained — every node's received stream is
// the root's item list, in the root's order.
func TestDiffFlood(t *testing.T) {
	items := []Item{{A: 5, B: 50}, {A: 6, C: 60}, {A: 7, D: 70}}
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		got := runDiff(t, g, opts, func(nd *congest.Node) []Item {
			ov := BuildBFS(nd, 0, 1)
			var in []Item
			if ov.Root {
				in = items
			}
			return Flood(nd, ov, 40, in)
		})
		for v := range g.N() {
			if !reflect.DeepEqual(got[v], items) {
				t.Fatalf("node %d stream: got %v, want %v", v, got[v], items)
			}
		}
	})
}

// TestDiffConvergeBroadcast: BFS+ConvergeBroadcast chained, with every
// node's global total compared against the central sum.
func TestDiffConvergeBroadcast(t *testing.T) {
	value := func(v graph.NodeID) int64 { return int64(v)*3 + 1 }
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		got := runDiff(t, g, opts, func(nd *congest.Node) int64 {
			ov := BuildBFS(nd, 0, 1)
			return ConvergeBroadcast(nd, ov, 20, value(nd.ID()), Sum)
		})
		var want int64
		for v := range g.N() {
			want += value(graph.NodeID(v))
		}
		for v := range g.N() {
			if got[v] != want {
				t.Fatalf("node %d total: got %d, want %d", v, got[v], want)
			}
		}
	})
}

// TestDiffConvergeItemVec: BFS+ConvergeItemVec chained, comparing every
// node's per-slot partials against the sums over its subtree of the
// central BFS tree.
func TestDiffConvergeItemVec(t *testing.T) {
	mine := func(v graph.NodeID) []Item {
		id := int64(v)
		return []Item{{A: id, B: 1}, {A: id * id, B: 1}, {A: -id, B: 1}}
	}
	combine := func(slot int, a, b Item) Item {
		return Item{A: a.A + b.A, B: a.B + b.B, C: a.C + b.C, D: a.D + b.D}
	}
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		got := runDiff(t, g, opts, func(nd *congest.Node) []Item {
			ov := BuildBFS(nd, 0, 1)
			acc, _ := ConvergeItemVec(nd, ov, 30, mine(nd.ID()), combine)
			return acc
		})
		tree := oracleBFS(g, 0)
		for v := range g.N() {
			want := make([]Item, 3)
			for _, u := range subtree(g, tree, graph.NodeID(v)) {
				for j, it := range mine(u) {
					want[j] = combine(j, want[j], it)
				}
			}
			if !reflect.DeepEqual(got[v], want) {
				t.Fatalf("node %d partials: got %v, want %v", v, got[v], want)
			}
		}
	})
}

// keyedMine is the per-node input of the KeyedSum tests: node v holds
// v+k for every key k that divides v.
func keyedMine(keys []int64, v graph.NodeID) map[int64]int64 {
	m := map[int64]int64{}
	for _, k := range keys {
		if int64(v)%k == 0 {
			m[k] = int64(v) + k
		}
	}
	return m
}

// TestDiffKeyedSum: BFS+KeyedSum chained, comparing every node's totals
// map against the central per-key sums. KeyedSum exercises the
// slot-pipelined in-order child receive and embeds a flood.
func TestDiffKeyedSum(t *testing.T) {
	keys := []int64{3, 7, 11, 20}
	forEachCase(t, func(t *testing.T, g *graph.Graph, opts congest.Options) {
		got := runDiff(t, g, opts, func(nd *congest.Node) map[int64]int64 {
			ov := BuildBFS(nd, 0, 1)
			return KeyedSum(nd, ov, 70, keys, keyedMine(keys, nd.ID()))
		})
		want := map[int64]int64{}
		for _, k := range keys {
			want[k] = 0
		}
		for v := range g.N() {
			for k, x := range keyedMine(keys, graph.NodeID(v)) {
				want[k] += x
			}
		}
		for v := range g.N() {
			if !reflect.DeepEqual(got[v], want) {
				t.Fatalf("node %d sums: got %v, want %v", v, got[v], want)
			}
		}
	})
}

// TestDiffWarmEngineRerun: a retained engine re-running a protocol
// chain must reproduce the fresh run exactly — the engine's warm-path
// reset leaves no residue from the previous run.
func TestDiffWarmEngineRerun(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	keys := []int64{3, 7, 11, 20}
	opts := congest.Options{Seed: 5}
	var sums map[int64]int64
	prog := func(nd *congest.Node) {
		ov := BuildBFS(nd, 0, 1)
		res := KeyedSum(nd, ov, 70, keys, map[int64]int64{keys[int(nd.ID())%len(keys)]: int64(nd.ID())})
		if nd.ID() == 0 {
			sums = res
		}
	}
	fresh, err := congest.Run(g, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	first, firstSums := fingerprintOf(fresh), sums
	e := congest.NewEngine(opts)
	defer e.Close()
	for rep := 0; rep < 3; rep++ {
		stats, err := e.Run(g, prog)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if fp := fingerprintOf(stats); fp != first {
			t.Fatalf("rep %d fingerprint %+v != fresh %+v", rep, fp, first)
		}
		if !reflect.DeepEqual(sums, firstSums) {
			t.Fatalf("rep %d sums %v != fresh %v", rep, sums, firstSums)
		}
	}
}
