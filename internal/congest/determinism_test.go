package congest

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"distmincut/internal/graph"
)

// statsKey is the deterministic portion of Stats: every field except
// Marks, whose intra-round interleaving is scheduling-dependent.
type statsKey struct {
	rounds                   int
	sent, delivered, wakeups int64
	leftover                 int64
}

func keyOf(s *Stats) statsKey {
	return statsKey{s.Rounds, s.Sent, s.Delivered, s.Wakeups, s.Leftover}
}

// chatterProgram is a randomized, RNG-driven workload: every node sends
// a random number of messages to each neighbor followed by an end
// marker, and consumes traffic until every port delivered its marker.
// It terminates under any scheduling and exercises Send, selective
// Recv, Sleep, and the sender registry together.
func chatterProgram(nd *Node) {
	const (
		kData  uint8 = 3
		kClose uint8 = 4
	)
	reps := 1 + nd.Rand().Intn(4)
	for i := 0; i < reps; i++ {
		nd.SendAll(Message{Kind: kData, Tag: uint32(i), A: int64(nd.ID())})
	}
	if nd.Rand().Intn(2) == 0 {
		nd.Sleep(1 + nd.Rand().Intn(3))
	}
	nd.SendAll(Message{Kind: kClose})
	for markers := 0; markers < nd.Degree(); {
		_, m := nd.Recv(MatchAny)
		if m.Kind == kClose {
			markers++
		}
	}
}

// determinismFamilies are the generator families the scheduler is
// checked on: path (long diameter), expander (the paper's hard
// instances), planted communities, and a dense clique.
func determinismFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      graph.Path(64),
		"expander":  graph.RandomRegular(64, 6, 11),
		"community": graph.PlantedCut(24, 24, 4, 0.2, 11),
		"complete":  graph.Complete(16),
	}
}

// roundKey is the deterministic portion of a RoundRecord: everything
// but the clock readings.
type roundKey struct {
	Round          int
	Delivered      int64
	TotalDelivered int64
	Woken          int
	DirtyNodes     int
}

func roundKeys(recs []RoundRecord) []roundKey {
	out := make([]roundKey, len(recs))
	for i, r := range recs {
		out[i] = roundKey{r.Round, r.Delivered, r.TotalDelivered, r.Woken, r.DirtyNodes}
	}
	return out
}

// TestDeterminismAcrossModes: for the same seed, the default delivery
// mode, serial delivery, and sharded delivery at several shard counts
// must produce bit-identical Stats on every generator family, and feed
// an observer the same record stream round by round.
func TestDeterminismAcrossModes(t *testing.T) {
	modes := []struct {
		name   string
		shards int
	}{
		{"default", 0},
		{"default-again", 0},
		{"serial", -1},
		{"shards-2", 2},
		{"shards-3", 3},
		{"shards-4", 4},
		{"shards-gomaxprocs", runtime.GOMAXPROCS(0)},
	}
	for name, g := range determinismFamilies() {
		t.Run(name, func(t *testing.T) {
			var want statsKey
			var wantRecs []roundKey
			for i, m := range modes {
				obs := &collectObserver{}
				stats, err := Run(g, Options{Seed: 42, DeliveryShards: m.shards, Observer: obs}, chatterProgram)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				got, gotRecs := keyOf(stats), roundKeys(obs.recs)
				if i == 0 {
					want, wantRecs = got, gotRecs
					continue
				}
				if got != want {
					t.Fatalf("%s stats diverged: got %+v, want %+v", m.name, got, want)
				}
				if len(gotRecs) != len(wantRecs) {
					t.Fatalf("%s observed %d rounds, want %d", m.name, len(gotRecs), len(wantRecs))
				}
				for r := range gotRecs {
					if gotRecs[r] != wantRecs[r] {
						t.Fatalf("%s record %d diverged: got %+v, want %+v", m.name, r, gotRecs[r], wantRecs[r])
					}
				}
			}
			if want.leftover != 0 {
				t.Fatalf("workload left %d unconsumed messages", want.leftover)
			}
		})
	}
}

// TestReusedEngineDeterminism: a reused engine must produce
// bit-identical Stats to a fresh engine, on every generator family and
// delivery mode — across repeat runs on the same graph (the warm
// dirty-region reset path) and across runs that interleave different
// graphs on one engine (the slab-reuse-with-rebuild path).
func TestReusedEngineDeterminism(t *testing.T) {
	modes := []struct {
		name   string
		shards int
	}{
		{"serial", -1},
		{"shards-2", 2},
		{"shards-gomaxprocs", runtime.GOMAXPROCS(0)},
	}
	families := determinismFamilies()
	for _, m := range modes {
		opts := Options{Seed: 42, DeliveryShards: m.shards}
		t.Run(m.name, func(t *testing.T) {
			// Fresh-engine baselines.
			want := map[string]statsKey{}
			for name, g := range families {
				stats, err := Run(g, opts, chatterProgram)
				if err != nil {
					t.Fatalf("%s fresh: %v", name, err)
				}
				want[name] = keyOf(stats)
			}
			// One engine, three consecutive runs per family: run 2 and 3
			// exercise the warm same-graph path.
			for name, g := range families {
				eng := NewEngine(opts)
				for i := 0; i < 3; i++ {
					stats, err := eng.Run(g, chatterProgram)
					if err != nil {
						t.Fatalf("%s reuse run %d: %v", name, i, err)
					}
					if got := keyOf(stats); got != want[name] {
						t.Fatalf("%s reuse run %d diverged: got %+v, want %+v", name, i, got, want[name])
					}
				}
				eng.Close()
			}
			// One engine across every family, twice over: each switch
			// rebuilds port tables while keeping whatever slabs fit.
			eng := NewEngine(opts)
			defer eng.Close()
			order := []string{"path", "expander", "community", "complete"}
			for round := 0; round < 2; round++ {
				for _, name := range order {
					stats, err := eng.Run(families[name], chatterProgram)
					if err != nil {
						t.Fatalf("%s cross-graph round %d: %v", name, round, err)
					}
					if got := keyOf(stats); got != want[name] {
						t.Fatalf("%s cross-graph round %d diverged: got %+v, want %+v", name, round, got, want[name])
					}
				}
			}
		})
	}
}

// TestReusedEngineAfterAbort: an aborted run (deadlock, panic) must not
// poison the engine — the next Run recarves everything and behaves like
// a fresh engine.
func TestReusedEngineAfterAbort(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	fresh, err := Run(g, Options{Seed: 42}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Options{Seed: 42})
	defer eng.Close()
	// Deadlock abort: every node parks in Recv with no traffic.
	if _, err := eng.Run(g, func(nd *Node) { nd.Recv(MatchKind(kindToken)) }); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	stats, err := eng.Run(g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(stats) != keyOf(fresh) {
		t.Fatalf("post-abort run diverged: got %+v, want %+v", keyOf(stats), keyOf(fresh))
	}
	// Panic abort mid-traffic leaves staged messages behind; the next
	// run must still match.
	if _, err := eng.Run(g, func(nd *Node) {
		nd.SendAll(Message{Kind: kindData})
		if nd.ID() == 3 {
			panic("boom")
		}
		for i := 0; i < nd.Degree(); i++ {
			nd.Recv(MatchKind(kindData))
		}
	}); err == nil {
		t.Fatal("expected panic error")
	}
	stats, err = eng.Run(g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(stats) != keyOf(fresh) {
		t.Fatalf("post-panic run diverged: got %+v, want %+v", keyOf(stats), keyOf(fresh))
	}
}

// TestWarmRunRetainsSlabs (whitebox): a second Run on the same graph
// must reuse the exact backing arrays of the first — the structural
// guarantee behind the near-zero warm setup-ns — and report a setup
// measurement.
func TestWarmRunRetainsSlabs(t *testing.T) {
	g := graph.RandomRegular(512, 6, 5)
	eng := NewEngine(Options{Seed: 7})
	defer eng.Close()
	if _, err := eng.Run(g, chatterProgram); err != nil {
		t.Fatal(err)
	}
	q0, m0, n0, w0 := &eng.qSlab[0], &eng.msgSlab[0], &eng.nodeSlab[0], &eng.wakeChs[0]
	stats, err := eng.Run(g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if &eng.qSlab[0] != q0 || &eng.msgSlab[0] != m0 || &eng.nodeSlab[0] != n0 || &eng.wakeChs[0] != w0 {
		t.Fatal("warm run replaced a retained slab")
	}
	if stats.SetupNanos <= 0 {
		t.Fatalf("SetupNanos = %d, want > 0", stats.SetupNanos)
	}
	t.Logf("warm setup: %d ns", stats.SetupNanos)
}

// TestClosedEngineReleasesNodeSlab (whitebox): a closed engine that
// stays referenced, like an idle service worker's, must not keep its
// released node slab reachable through the pointer buffers it retains
// for reuse. Once the slab's pool class is drained, a collection must
// reclaim it.
func TestClosedEngineReleasesNodeSlab(t *testing.T) {
	g := graph.RandomRegular(512, 6, 5)
	eng := NewEngine(Options{Seed: 7, DeliveryShards: 2})
	if _, err := eng.Run(g, chatterProgram); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.AddCleanup(&eng.nodeSlab[0], func(ch chan struct{}) { close(ch) }, freed)
	class := slabClass(cap(eng.nodeSlab))
	eng.Close()
	for nodeSlabPool[class].Get() != nil {
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(eng)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(eng)
	t.Fatal("closed engine still keeps its released node slab reachable")
}

// TestDeterminismUnbounded: the span-copy delivery of Unbounded mode
// must stay bit-identical across serial and sharded delivery.
func TestDeterminismUnbounded(t *testing.T) {
	for name, g := range determinismFamilies() {
		t.Run(name, func(t *testing.T) {
			var want statsKey
			modes := []Options{
				{Seed: 7, Unbounded: true},
				{Seed: 7, Unbounded: true, DeliveryShards: 3},
				{Seed: 7, Unbounded: true, DeliveryShards: 2},
			}
			for i, opts := range modes {
				stats, err := Run(g, opts, chatterProgram)
				if err != nil {
					t.Fatalf("mode %d: %v", i, err)
				}
				got := keyOf(stats)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("mode %d stats diverged: got %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestShardsEdgeCases: sharded delivery must preserve the engine's
// error paths, not just the happy path.

func TestShardsPanicPropagation(t *testing.T) {
	g := graph.Cycle(6)
	_, err := Run(g, Options{DeliveryShards: 3}, func(nd *Node) {
		if nd.ID() == 4 {
			panic("boom")
		}
		nd.Recv(MatchKind(kindToken))
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Node != 4 {
		t.Fatalf("err = %v, want PanicError from node 4", err)
	}
}

func TestShardsDeadlockDetection(t *testing.T) {
	g := graph.Path(5)
	_, err := Run(g, Options{DeliveryShards: 2}, func(nd *Node) {
		nd.Recv(MatchKind(kindToken))
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestShardsMoreThanNodes(t *testing.T) {
	g := graph.Path(2)
	stats, err := Run(g, Options{DeliveryShards: 16}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(0, Message{Kind: kindToken})
		} else {
			nd.RecvKindTag(kindToken, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", stats.Delivered)
	}
}

// TestDeterminismAcrossSeeds: different seeds must actually change the
// run (guards against the RNG being ignored), while each seed stays
// self-consistent.
func TestDeterminismAcrossSeeds(t *testing.T) {
	g := graph.RandomRegular(48, 4, 7)
	a1, err := Run(g, Options{Seed: 1}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(g, Options{Seed: 1}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{Seed: 2}, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(a1) != keyOf(a2) {
		t.Fatalf("same seed diverged: %v vs %v", a1, a2)
	}
	if a1.Sent == b.Sent && a1.Rounds == b.Rounds {
		t.Fatalf("seeds 1 and 2 produced identical traffic (%v); RNG not applied", a1)
	}
}

// The TestWorkers* tests hold the engine's edge cases under two
// delivery shards on graphs of 2·parallelMatchMin nodes, large enough
// that receive matching fans out over the shard workers; the 2–6-node
// graphs of the TestShards* tests never reach that path.

// workerPairs is a perfect matching on n nodes: 2i–2i+1 for every i.
func workerPairs(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u+1 < n; u += 2 {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1), 1)
	}
	return g
}

// pairPingPong bounces a token k times across every pair of
// workerPairs: each even node sends on port 0 and awaits the echo, each
// odd node echoes whatever arrives.
func pairPingPong(k int) func(*Node) {
	return func(nd *Node) {
		match := MatchKindTag(kindToken, 0)
		for i := 0; i < k; i++ {
			if nd.ID()%2 == 0 {
				nd.Send(0, Message{Kind: kindToken, A: int64(i)})
				if _, m := nd.Recv(match); m.A != int64(i) {
					panic("token payload corrupted")
				}
			} else {
				_, m := nd.Recv(match)
				nd.Send(0, m)
			}
		}
	}
}

func TestWorkersPingPong(t *testing.T) {
	g := workerPairs(2 * parallelMatchMin)
	const k = 7
	stats, err := Run(g, Options{DeliveryShards: 2}, pairPingPong(k))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2*k {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, 2*k)
	}
	if want := int64(g.N() * k); stats.Delivered != want {
		t.Fatalf("delivered = %d, want %d", stats.Delivered, want)
	}
}

func TestWorkersPanicPropagation(t *testing.T) {
	g := graph.Cycle(2 * parallelMatchMin)
	_, err := Run(g, Options{DeliveryShards: 2}, func(nd *Node) {
		if nd.ID() == 100 {
			panic("boom")
		}
		nd.Recv(MatchKind(kindToken))
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Node != 100 {
		t.Fatalf("err = %v, want PanicError from node 100", err)
	}
}

func TestWorkersDeadlockDetection(t *testing.T) {
	g := graph.Path(2 * parallelMatchMin)
	_, err := Run(g, Options{DeliveryShards: 2}, func(nd *Node) {
		nd.Recv(MatchKind(kindToken))
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestWorkersMaxRounds(t *testing.T) {
	g := workerPairs(2 * parallelMatchMin)
	_, err := Run(g, Options{MaxRounds: 10, DeliveryShards: 2}, pairPingPong(1<<30))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestWorkersSleepFastForward(t *testing.T) {
	g := graph.Path(2 * parallelMatchMin)
	const target = 1000
	stats, err := Run(g, Options{DeliveryShards: 2}, func(nd *Node) {
		nd.Sleep(target)
		if nd.Round() != target {
			panic("woke at wrong round")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != target {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, target)
	}
}
