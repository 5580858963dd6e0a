package congest

import (
	"errors"
	"strings"
	"testing"

	"distmincut/internal/graph"
)

// stepPingPong is the step form of the two-node token bounce in
// TestPingPongRounds: each even node sends the token on port 0 and
// awaits its return k times; each odd node echoes whatever arrives. On
// Path(2) that is node 0 and node 1; on a perfect matching every pair
// bounces its own token.
type stepPingPong struct {
	k  int
	st []stepPingPongState
}

type stepPingPongState struct {
	started bool
	i       int
	match   MatchFunc
}

func (p *stepPingPong) InitRun(n int) {
	if cap(p.st) < n {
		p.st = make([]stepPingPongState, n)
	} else {
		p.st = p.st[:n]
		for i := range p.st {
			p.st[i] = stepPingPongState{}
		}
	}
}

func (p *stepPingPong) Step(nd *Node) Park {
	st := &p.st[nd.ID()]
	if !st.started {
		st.started = true
		st.match = MatchKindTag(kindToken, 0)
	}
	for st.i < p.k {
		if nd.ID()%2 == 0 {
			// Each iteration: send, then await the echo.
			_, m, ok := nd.StepRecv(st.match)
			if !ok {
				nd.Send(0, Message{Kind: kindToken, A: int64(st.i)})
				return ParkRecv(st.match)
			}
			if m.A != int64(st.i) {
				panic("token payload corrupted")
			}
			st.i++
		} else {
			_, m, ok := nd.StepRecv(st.match)
			if !ok {
				return ParkRecv(st.match)
			}
			nd.Send(0, m)
			st.i++
		}
	}
	return ParkDone()
}

// TestStepPingPongRounds mirrors TestPingPongRounds on the step path:
// same token bounce, same exact 2k-round accounting.
func TestStepPingPongRounds(t *testing.T) {
	g := graph.Path(2)
	const k = 7
	stats, err := Run(g, Options{}, &stepPingPong{k: k})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2*k {
		t.Fatalf("step ping-pong rounds = %d, want %d", stats.Rounds, 2*k)
	}
	if stats.Leftover != 0 {
		t.Fatalf("leftover = %d, want 0", stats.Leftover)
	}
}

// stepFuncProgram adapts per-node step closures for small tests: state
// lives in the closure environment keyed by node ID.
type stepFuncProgram struct {
	init func(n int)
	step func(nd *Node) Park
}

func (p *stepFuncProgram) InitRun(n int) {
	if p.init != nil {
		p.init(n)
	}
}
func (p *stepFuncProgram) Step(nd *Node) Park { return p.step(nd) }

// TestStepSleepFastForward: all nodes sleep with no traffic in flight;
// the engine must fast-forward the round clock to the wake deadline
// exactly as it does for blocking sleepers.
func TestStepSleepFastForward(t *testing.T) {
	g := graph.Path(3)
	var slept []bool
	prog := &stepFuncProgram{
		init: func(n int) { slept = make([]bool, n) },
		step: func(nd *Node) Park {
			if !slept[nd.ID()] {
				slept[nd.ID()] = true
				return ParkSleep(100)
			}
			return ParkDone()
		},
	}
	stats, err := Run(g, Options{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 100 {
		t.Fatalf("rounds = %d, want 100 (fast-forward)", stats.Rounds)
	}
	if stats.Wakeups != int64(g.N()) {
		t.Fatalf("wakeups = %d, want %d", stats.Wakeups, g.N())
	}
}

// TestStepDeadlock: step nodes parked in Recv with nothing in flight
// must trip the same ErrDeadlock as blocking ones.
func TestStepDeadlock(t *testing.T) {
	g := graph.Path(2)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park { return ParkRecv(MatchAny) },
	}
	_, err := Run(g, Options{}, prog)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestStepPanic: a panic inside Step must surface as a *PanicError
// naming the node, like a panic in a blocking program.
func TestStepPanic(t *testing.T) {
	g := graph.Path(4)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			if nd.ID() == 2 {
				panic("step boom")
			}
			return ParkDone()
		},
	}
	_, err := Run(g, Options{}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Node != 2 || pe.Value != "step boom" {
		t.Fatalf("panic error = %+v", pe)
	}
}

// TestStepNilMatchPark: returning ParkRecv(nil) is a program bug the
// engine must fail loudly (as a PanicError), not crash on.
func TestStepNilMatchPark(t *testing.T) {
	g := graph.Path(2)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			nd.SendAll(Message{Kind: kindData})
			return ParkRecv(nil)
		},
	}
	_, err := Run(g, Options{}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "nil match") {
		t.Fatalf("error %q does not mention the nil match", pe.Error())
	}
}

// TestStepBlockingCallPanics: calling the blocking Recv from a step
// program must fail the run with a descriptive PanicError instead of
// deadlocking the coordinator.
func TestStepBlockingCallPanics(t *testing.T) {
	g := graph.Path(2)
	prog := &stepFuncProgram{
		step: func(nd *Node) Park {
			nd.Recv(MatchAny) // illegal: no goroutine to park
			return ParkDone()
		},
	}
	_, err := Run(g, Options{}, prog)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "step program") {
		t.Fatalf("error %q does not mention step programs", pe.Error())
	}
}

// TestStepUnknownProgramType: Run must reject program values that are
// neither blocking functions nor StepPrograms.
func TestStepUnknownProgramType(t *testing.T) {
	g := graph.Path(2)
	if _, err := Run(g, Options{}, 42); err == nil {
		t.Fatal("Run accepted an int as a program")
	}
	e := NewEngine(Options{})
	defer e.Close()
	if _, err := e.Run(g, nil); err == nil {
		t.Fatal("Run accepted a nil program")
	}
	// The engine must remain usable after the rejection.
	if _, err := e.Run(g, &stepPingPong{k: 1}); err != nil {
		t.Fatalf("engine unusable after rejected program: %v", err)
	}
}

// TestStepSeqChaining: a StepSeq must enter the next sub-program within
// the same activation the previous one finishes — two no-send phases
// chained over three nodes complete in zero rounds, and phase results
// flow through program state.
func TestStepSeqChaining(t *testing.T) {
	g := graph.Path(3)
	var order [][]int
	mk := func(tag int) *stepFuncProgram {
		return &stepFuncProgram{
			init: func(n int) {
				if tag == 0 {
					order = make([][]int, n)
				}
			},
			step: func(nd *Node) Park {
				order[nd.ID()] = append(order[nd.ID()], tag)
				return ParkDone()
			},
		}
	}
	stats, err := Run(g, Options{}, NewStepSeq(mk(0), mk(1), mk(2)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 {
		t.Fatalf("rounds = %d, want 0 (all phases chain in the initial activation)", stats.Rounds)
	}
	for id, got := range order {
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("node %d phase order = %v, want [0 1 2]", id, got)
		}
	}
}

// TestStepSeqAcrossRounds: sub-programs that park still hand off
// correctly — a sleep phase followed by an exchange phase.
func TestStepSeqAcrossRounds(t *testing.T) {
	g := graph.Complete(4)
	sleeper := &stepFuncProgram{}
	var slept []bool
	sleeper.init = func(n int) { slept = make([]bool, n) }
	sleeper.step = func(nd *Node) Park {
		if !slept[nd.ID()] {
			slept[nd.ID()] = true
			return ParkSleep(3)
		}
		return ParkDone()
	}
	stats, err := Run(g, Options{}, NewStepSeq(sleeper, newStepExchange(2)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leftover != 0 {
		t.Fatalf("leftover = %d, want 0", stats.Leftover)
	}
	if stats.Rounds < 3+2 {
		t.Fatalf("rounds = %d, want >= 5 (3 sleep + 2 exchange)", stats.Rounds)
	}
	wantMsgs := int64(g.N() * (g.N() - 1) * 2)
	if stats.Delivered != wantMsgs {
		t.Fatalf("delivered = %d, want %d", stats.Delivered, wantMsgs)
	}
}

// TestStepShardedMatchesSerial: the sharded step dispatch (contiguous
// wake chunks over the delivery-shard workers) must produce the same
// Stats as serial step dispatch. Uses a graph large enough to clear
// parallelStepMin so the fan-out path actually runs.
func TestStepShardedMatchesSerial(t *testing.T) {
	g := graph.RandomRegular(256, 6, 7)
	serial, err := Run(g, Options{Seed: 3, DeliveryShards: -1}, newStepExchange(4))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(g, Options{Seed: 3, DeliveryShards: 4}, newStepExchange(4))
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(serial) != keyOf(sharded) {
		t.Fatalf("sharded step stats %+v != serial step stats %+v", keyOf(sharded), keyOf(serial))
	}
	if serial.Delivered == 0 {
		t.Fatal("exchange delivered nothing")
	}
}
