package congest

import (
	"errors"
	"runtime"
	"testing"

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

// TestDeterminismAcrossModes: for the same seed, the default delivery
// mode, serial delivery, and sharded delivery at several shard counts
// must produce bit-identical Stats on every generator family.
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
			for i, m := range modes {
				stats, err := Run(g, Options{Seed: 42, DeliveryShards: m.shards}, chatterProgram)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				got := keyOf(stats)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s stats diverged: got %+v, want %+v", m.name, got, want)
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
	// workers-2 runs the step form of the workload, whose activations
	// fan out over two shard workers; the other modes run the blocking
	// form.
	blocking := func() any { return chatterProgram }
	modes := []struct {
		name   string
		shards int
		prog   func() any
	}{
		{"serial", -1, blocking},
		{"workers-2", 2, func() any { return &stepChatter{} }},
		{"shards-2", 2, blocking},
		{"shards-gomaxprocs", runtime.GOMAXPROCS(0), blocking},
	}
	families := determinismFamilies()
	for _, m := range modes {
		opts := Options{Seed: 42, DeliveryShards: m.shards}
		t.Run(m.name, func(t *testing.T) {
			// Fresh-engine baselines.
			want := map[string]statsKey{}
			for name, g := range families {
				stats, err := Run(g, opts, m.prog())
				if err != nil {
					t.Fatalf("%s fresh: %v", name, err)
				}
				want[name] = keyOf(stats)
			}
			// One engine, three consecutive runs per family: run 2 and 3
			// exercise the warm same-graph path.
			for name, g := range families {
				eng := NewEngine(opts)
				prog := m.prog()
				for i := 0; i < 3; i++ {
					stats, err := eng.Run(g, prog)
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
			prog := m.prog()
			for round := 0; round < 2; round++ {
				for _, name := range order {
					stats, err := eng.Run(families[name], prog)
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

// Worker-pool execution: with two or more delivery shards, a step
// program's wake list is split over the shard workers once it reaches
// parallelStepMin, so node programs run on a bounded pool instead of
// one goroutine each. The pool must preserve every engine edge case,
// not just the happy path; each graph below wakes at least
// parallelStepMin nodes at once so the fan-out path runs.

// workerPairs is a perfect matching on n nodes: 2i–2i+1 for every i.
func workerPairs(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u+1 < n; u += 2 {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1), 1)
	}
	return g
}

func TestWorkersPingPong(t *testing.T) {
	g := workerPairs(2 * parallelStepMin)
	const k = 7
	stats, err := Run(g, Options{DeliveryShards: 2}, &stepPingPong{k: k})
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
	g := graph.Cycle(2 * parallelStepMin)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			if nd.ID() == 100 {
				panic("boom")
			}
			return ParkRecv(MatchKind(kindToken))
		},
	}
	_, err := Run(g, Options{DeliveryShards: 2}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Node != 100 {
		t.Fatalf("err = %v, want PanicError from node 100", err)
	}
}

func TestWorkersDeadlockDetection(t *testing.T) {
	g := graph.Path(2 * parallelStepMin)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park { return ParkRecv(MatchKind(kindToken)) },
	}
	_, err := Run(g, Options{DeliveryShards: 2}, prog)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestWorkersMaxRounds(t *testing.T) {
	g := workerPairs(2 * parallelStepMin)
	_, err := Run(g, Options{MaxRounds: 10, DeliveryShards: 2}, &stepPingPong{k: 1 << 30})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestWorkersSleepFastForward(t *testing.T) {
	g := graph.Path(2 * parallelStepMin)
	const target = 1000
	var slept []bool
	prog := &stepFuncProgram{
		init: func(n int) { slept = make([]bool, n) },
		step: func(nd *Node) Park {
			if !slept[nd.ID()] {
				slept[nd.ID()] = true
				return ParkSleep(target)
			}
			if nd.Round() != target {
				panic("woke at wrong round")
			}
			return ParkDone()
		},
	}
	stats, err := Run(g, Options{DeliveryShards: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != target {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, target)
	}
}

// ---------------------------------------------------------------------
// Differential determinism: the compiled step path vs the goroutine
// path. For every program ported to step form, the two executions must
// be bit-identical — same Stats, same marks — on every generator family
// and execution mode. The protocol-level half of this layer (BFS and
// the step collectives vs their blocking twins) lives in
// internal/proto/step_diff_test.go.

// stepChatter is the step twin of chatterProgram: the same RNG draws in
// the same order, the same sends, the same park points. Any divergence
// in scheduling between the two paths shows up as a Stats mismatch.
type stepChatter struct {
	st []stepChatterState
}

type stepChatterState struct {
	pc      int
	markers int
}

func (c *stepChatter) InitRun(n int) {
	if cap(c.st) < n {
		c.st = make([]stepChatterState, n)
	} else {
		c.st = c.st[:n]
		for i := range c.st {
			c.st[i] = stepChatterState{}
		}
	}
}

func (c *stepChatter) Step(nd *Node) Park {
	const (
		kData  uint8 = 3
		kClose uint8 = 4
	)
	st := &c.st[nd.ID()]
	for {
		switch st.pc {
		case 0:
			reps := 1 + nd.Rand().Intn(4)
			for i := 0; i < reps; i++ {
				nd.SendAll(Message{Kind: kData, Tag: uint32(i), A: int64(nd.ID())})
			}
			st.pc = 1
			if nd.Rand().Intn(2) == 0 {
				return ParkSleep(1 + nd.Rand().Intn(3))
			}
		case 1:
			nd.SendAll(Message{Kind: kClose})
			st.pc = 2
		case 2:
			for st.markers < nd.Degree() {
				_, m, ok := nd.StepRecv(MatchAny)
				if !ok {
					return ParkRecv(MatchAny)
				}
				if m.Kind == kClose {
					st.markers++
				}
			}
			return ParkDone()
		}
	}
}

// phasedProgram is a two-phase exchange whose phase boundaries node 0
// records as begin:/end: marks, with a sleep separating the phases — a
// miniature of how the pipeline instruments its steps.
func phasedProgram(nd *Node) {
	if nd.ID() == 0 {
		nd.Mark("begin:exchange")
	}
	nd.SendAll(Message{Kind: kindData})
	for i := 0; i < nd.Degree(); i++ {
		nd.Recv(MatchKind(kindData))
	}
	if nd.ID() == 0 {
		nd.Mark("end:exchange")
	}
	nd.Sleep(2)
	if nd.ID() == 0 {
		nd.Mark("begin:echo")
	}
	nd.SendAll(Message{Kind: kindToken})
	for i := 0; i < nd.Degree(); i++ {
		nd.Recv(MatchKind(kindToken))
	}
	if nd.ID() == 0 {
		nd.Mark("end:echo")
	}
}

// stepPhased is phasedProgram in step form: same sends, same marks at
// the same points, same park structure.
type stepPhased struct {
	st []stepPhasedState
}

type stepPhasedState struct {
	pc  int
	got int
}

func (c *stepPhased) InitRun(n int) {
	if cap(c.st) < n {
		c.st = make([]stepPhasedState, n)
	} else {
		c.st = c.st[:n]
		for i := range c.st {
			c.st[i] = stepPhasedState{}
		}
	}
}

func (c *stepPhased) Step(nd *Node) Park {
	st := &c.st[nd.ID()]
	for {
		switch st.pc {
		case 0:
			if nd.ID() == 0 {
				nd.Mark("begin:exchange")
			}
			nd.SendAll(Message{Kind: kindData})
			st.pc = 1
		case 1:
			for st.got < nd.Degree() {
				if _, _, ok := nd.StepRecv(MatchKind(kindData)); !ok {
					return ParkRecv(MatchKind(kindData))
				}
				st.got++
			}
			if nd.ID() == 0 {
				nd.Mark("end:exchange")
			}
			st.pc = 2
			return ParkSleep(2)
		case 2:
			if nd.ID() == 0 {
				nd.Mark("begin:echo")
			}
			nd.SendAll(Message{Kind: kindToken})
			st.got = 0
			st.pc = 3
		case 3:
			for st.got < nd.Degree() {
				if _, _, ok := nd.StepRecv(MatchKind(kindToken)); !ok {
					return ParkRecv(MatchKind(kindToken))
				}
				st.got++
			}
			if nd.ID() == 0 {
				nd.Mark("end:echo")
			}
			return ParkDone()
		}
	}
}

// fullKey extends statsKey with the dirty-node count and the normalized
// mark stream (label, round, node, delivered — everything but the
// wall-clock field).
type fullKey struct {
	statsKey
	dirty int
	marks string
}

func fullKeyOf(t *testing.T, s *Stats) fullKey {
	t.Helper()
	var b []byte
	for _, m := range s.Marks {
		b = append(b, []byte(m.Label)...)
		b = append(b, '@')
		b = appendInts(b, m.Round, int(m.Node), int(m.Delivered))
	}
	return fullKey{statsKey: keyOf(s), dirty: s.DirtyNodes, marks: string(b)}
}

func appendInts(b []byte, vals ...int) []byte {
	for _, v := range vals {
		if v < 0 {
			b = append(b, '-')
			v = -v
		}
		var tmp [20]byte
		i := len(tmp)
		for {
			i--
			tmp[i] = byte('0' + v%10)
			v /= 10
			if v == 0 {
				break
			}
		}
		b = append(b, tmp[i:]...)
		b = append(b, ';')
	}
	return b
}

// stepDiffModes are the execution configurations the two paths are
// compared under: serial, and step activations fanned out over two and
// three shard workers.
func stepDiffModes() map[string]Options {
	return map[string]Options{
		"serial":    {Seed: 42, DeliveryShards: -1},
		"workers-2": {Seed: 42, DeliveryShards: 2},
		"shards-3":  {Seed: 42, DeliveryShards: 3},
	}
}

// TestStepDifferentialChatter: the RNG-driven chatter workload must be
// bit-identical between the goroutine and step paths on every family
// and mode — including the per-node RNG draw sequence, sleeps, and the
// selective-receive drain.
func TestStepDifferentialChatter(t *testing.T) {
	for fam, g := range determinismFamilies() {
		for mode, opts := range stepDiffModes() {
			t.Run(fam+"/"+mode, func(t *testing.T) {
				bs, err := Run(g, opts, chatterProgram)
				if err != nil {
					t.Fatalf("goroutine path: %v", err)
				}
				ss, err := Run(g, opts, &stepChatter{})
				if err != nil {
					t.Fatalf("step path: %v", err)
				}
				if got, want := fullKeyOf(t, ss), fullKeyOf(t, bs); got != want {
					t.Fatalf("step path diverged: got %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestStepDifferentialMarks: the phased, mark-recording workload must
// produce the identical mark stream — labels, rounds, delivered counts
// — on both paths.
func TestStepDifferentialMarks(t *testing.T) {
	for fam, g := range determinismFamilies() {
		for mode, opts := range stepDiffModes() {
			t.Run(fam+"/"+mode, func(t *testing.T) {
				bs, err := Run(g, opts, phasedProgram)
				if err != nil {
					t.Fatalf("goroutine path: %v", err)
				}
				ss, err := Run(g, opts, &stepPhased{})
				if err != nil {
					t.Fatalf("step path: %v", err)
				}
				if bs.Marks == nil || len(bs.Marks) != 4 {
					t.Fatalf("expected 4 marks, got %v", bs.Marks)
				}
				if got, want := fullKeyOf(t, ss), fullKeyOf(t, bs); got != want {
					t.Fatalf("step path diverged: got %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestStepWarmEngineAlternatingModes: one retained engine alternating
// goroutine and step programs run-over-run must reproduce the fresh
// fingerprints every time — neither path's warm-state shortcuts
// (phase staleness, wake-channel slabs, program state slabs) may leak
// into the other.
func TestStepWarmEngineAlternatingModes(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{Seed: 42}
	bs, err := Run(g, opts, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Run(g, opts, &stepChatter{})
	if err != nil {
		t.Fatal(err)
	}
	want := fullKeyOf(t, bs)
	if got := fullKeyOf(t, ss); got != want {
		t.Fatalf("fresh step run diverged: got %+v, want %+v", got, want)
	}
	eng := NewEngine(opts)
	defer eng.Close()
	step := &stepChatter{}
	for rep := 0; rep < 6; rep++ {
		var stats *Stats
		var err error
		if rep%2 == 0 {
			stats, err = eng.Run(g, chatterProgram)
		} else {
			stats, err = eng.Run(g, step)
		}
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if got := fullKeyOf(t, stats); got != want {
			t.Fatalf("rep %d diverged: got %+v, want %+v", rep, got, want)
		}
	}
}

// TestStepReusedEngineAfterAbort: aborted step runs (deadlock, panic
// mid-traffic) must not poison a retained engine for either path.
func TestStepReusedEngineAfterAbort(t *testing.T) {
	g := graph.RandomRegular(64, 6, 11)
	opts := Options{Seed: 42}
	fresh, err := Run(g, opts, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	want := fullKeyOf(t, fresh)
	eng := NewEngine(opts)
	defer eng.Close()
	// Step deadlock: every node parks in Recv with no traffic.
	deadlock := &stepFuncProgram{step: func(nd *Node) Park { return ParkRecv(MatchAny) }}
	if _, err := eng.Run(g, deadlock); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	stats, err := eng.Run(g, chatterProgram)
	if err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(t, stats); got != want {
		t.Fatalf("goroutine run after step deadlock diverged: got %+v, want %+v", got, want)
	}
	// Step panic mid-traffic leaves staged messages behind; a step rerun
	// must still match.
	bomber := &stepFuncProgram{step: func(nd *Node) Park {
		nd.SendAll(Message{Kind: kindData})
		if nd.ID() == 3 {
			panic("step boom")
		}
		return ParkRecv(MatchKind(kindData))
	}}
	if _, err := eng.Run(g, bomber); err == nil {
		t.Fatal("expected panic error")
	}
	stats, err = eng.Run(g, &stepChatter{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fullKeyOf(t, stats); got != want {
		t.Fatalf("step run after step panic diverged: got %+v, want %+v", got, want)
	}
}
