package congest

import (
	"runtime/debug"

	"distmincut/internal/graph"
)

// Program is what an engine executes on every node: either a blocking
// goroutine program (a func(*Node) that calls Recv/Sleep and holds its
// state on its own stack) or a compiled StepProgram (an explicit
// round-driven state machine the engine drives as tight shard-parallel
// loops, with no goroutines or channels on the hot path). Run dispatches
// on the dynamic type; any other type fails the run with an error.
//
// Both execution paths share the same coordinator — sender registry,
// delivery (serial or sharded), receive matching, wake-set construction,
// sleepers, budgets, and abort handling — so a step program that parks
// at the same points with the same predicates and sends as its blocking
// twin produces bit-identical Stats and marks (the guarantee the
// differential determinism suite enforces for every dual-implementation
// protocol in this repository).
type Program any

// StepProgram is the compiled form of a node program: instead of
// blocking in Recv or Sleep, each activation is an explicit step that
// returns how it ended (a Park). The engine runs activations as plain
// function calls on the coordinator — or fanned out over the delivery
// shards — so the per-activation cost is a call into a state slab
// instead of a goroutine wake/park handshake.
//
// Contract:
//   - InitRun is called once per Run, after engine setup and before the
//     first activation, with the graph's node count. Implementations
//     (re)allocate their per-node state slabs here; reusing a slab whose
//     capacity suffices keeps warm runs allocation-free.
//   - Step runs one activation of nd. The first call per node is its
//     initial activation (round 0); each later call means the node's
//     previous Park was satisfied — its Recv predicate matched a
//     buffered message (consume it via Node.StepRecv) or its sleep
//     expired. Step may use every non-blocking Node method (Send,
//     SendAll, StepRecv, TryRecv, Mark, Rand, Round, ...); calling the
//     blocking Recv or Sleep from a step program panics (surfacing as a
//     *PanicError), since there is no goroutine to park.
//   - Step must be safe for concurrent calls on distinct nodes: the
//     engine steps different nodes from different shard workers.
//     Per-node state indexed by nd.ID() satisfies this; shared state
//     must be read-only during the run.
//
// A StepProgram must reproduce its blocking twin's activation structure
// exactly — same sends, same park predicates, same park points — for
// the two execution paths to produce identical Stats. The Recv pattern
// translates mechanically: a blocking nd.Recv(match) becomes "consume
// with StepRecv(match) if present, else return ParkRecv(match) and
// resume here on the next Step".
type StepProgram interface {
	InitRun(n int)
	Step(nd *Node) Park
}

// Park describes how a step-program activation ended: the program
// exited (ParkDone), parked waiting for a matching message (ParkRecv),
// or parked for a number of rounds (ParkSleep). The zero value is
// ParkDone.
type Park struct {
	status stepStatus
	match  MatchFunc
	rounds int
}

type stepStatus uint8

const (
	stepDone stepStatus = iota
	stepRecv
	stepSleep
)

// ParkDone ends the node's program: it will not be activated again this
// run (mirrors the blocking program returning).
func ParkDone() Park { return Park{} }

// ParkRecv parks the node until a buffered or newly delivered message
// satisfies match, exactly like a blocking Recv that found nothing
// buffered. The next Step call should consume the message via
// Node.StepRecv with the same predicate.
func ParkRecv(match MatchFunc) Park { return Park{status: stepRecv, match: match} }

// ParkSleep parks the node for the given number of rounds (at least
// one), exactly like the blocking Node.Sleep.
func ParkSleep(rounds int) Park { return Park{status: stepSleep, rounds: rounds} }

// Done reports whether the park ends the program (useful to program
// combinators that chain sub-machines, e.g. StepSeq).
func (p Park) Done() bool { return p.status == stepDone }

// StepSeq chains step programs sequentially: each node runs the
// sub-programs in order, entering sub-program i+1 within the same
// activation its i-th one finishes — exactly how a blocking program
// falls through from one protocol phase into the next without parking.
// Sub-programs pass results through their own concrete state (e.g. a
// StepBFS exposes the overlays the next collective reads); nodes
// advance independently, with no global synchronization between
// sub-programs.
type StepSeq struct {
	subs []StepProgram
	idx  []int32
}

// NewStepSeq returns the sequential composition of subs.
func NewStepSeq(subs ...StepProgram) *StepSeq {
	return &StepSeq{subs: subs}
}

// InitRun initializes every sub-program and resets the per-node phase
// cursors.
func (s *StepSeq) InitRun(n int) {
	for _, sub := range s.subs {
		sub.InitRun(n)
	}
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	} else {
		s.idx = s.idx[:n]
		for i := range s.idx {
			s.idx[i] = 0
		}
	}
}

// Step advances nd's current sub-program, falling through to the next
// one whenever it finishes inside this activation.
func (s *StepSeq) Step(nd *Node) Park {
	i := s.idx[nd.ID()]
	for int(i) < len(s.subs) {
		park := s.subs[i].Step(nd)
		if !park.Done() {
			return park
		}
		i++
		s.idx[nd.ID()] = i
	}
	return ParkDone()
}

// parallelStepMin is the wake-count threshold below which step dispatch
// stays on the coordinator even when shards exist (fanning out a
// handful of activations costs more than running them inline).
const parallelStepMin = 64

// dispatchStep runs one activation of every node in wake by calling the
// step program directly — the step-mode counterpart of dispatch. Small
// wakes run inline on the coordinator; large ones are split into
// contiguous chunks over the delivery-shard workers, each stepping its
// chunk sequentially and collecting sleep/done notifications into a
// shard-local list the coordinator merges in shard order. Chunk
// boundaries never affect Stats: activations touch only their own
// node's state and stage sends through the same lock-free registry the
// goroutine path uses.
func (e *Engine) dispatchStep(wake []*Node) {
	if len(wake) == 0 {
		return
	}
	if len(e.shards) > 1 && len(wake) >= parallelStepMin {
		per := (len(wake) + len(e.shards) - 1) / len(e.shards)
		for i, sh := range e.shards {
			lo := min(i*per, len(wake))
			sh.stepWake = wake[lo:min(lo+per, len(wake))]
			sh.taskCh <- taskStep
		}
		for range e.shards {
			<-e.shardDone
		}
		for _, sh := range e.shards {
			e.notified = append(e.notified, sh.stepNotified...)
			sh.stepNotified = sh.stepNotified[:0]
		}
		return
	}
	for _, nd := range wake {
		e.stepNode(nd, &e.notified)
	}
}

// stepRange steps this shard's chunk of the current wake list.
func (sh *deliveryShard) stepRange() {
	for _, nd := range sh.stepWake {
		sh.eng.stepNode(nd, &sh.stepNotified)
	}
}

// stepNode runs one activation of nd and applies its Park — the
// step-mode equivalent of the goroutine path's wake + park handshake.
// Park bookkeeping mirrors Node.park exactly (parkGen increments on
// every park; sleep and done notifications queue for the coordinator;
// Recv parks need no attention), so the shared coordinator sees the
// same node states in both modes.
func (e *Engine) stepNode(nd *Node, notified *[]*Node) {
	park := e.safeStep(nd)
	switch park.status {
	case stepRecv:
		if park.match == nil {
			nd.panicVal = &PanicError{Node: nd.id, Value: "step program returned ParkRecv with a nil match"}
			nd.phase = phaseDone
			*notified = append(*notified, nd)
			return
		}
		nd.match = park.match
		nd.parkGen++
		nd.phase = phaseRecv
	case stepSleep:
		r := park.rounds
		if r < 1 {
			r = 1
		}
		nd.wakeAt = e.round + r
		nd.parkGen++
		nd.phase = phaseSleep
		*notified = append(*notified, nd)
	default: // stepDone
		nd.phase = phaseDone
		*notified = append(*notified, nd)
	}
}

// safeStep calls the step program with the same panic barrier the
// goroutine path gives node programs: a panic fails the node (becoming
// the run's *PanicError) instead of the process, and the node is
// treated as done so the round can finish before the abort.
func (e *Engine) safeStep(nd *Node) (park Park) {
	defer func() {
		if r := recover(); r != nil {
			nd.panicVal = &PanicError{Node: nd.id, Value: r, Stack: string(debug.Stack())}
			park = Park{}
		}
	}()
	return e.stepProg.Step(nd)
}

// FixedOverlaySlab is a trivial helper for step programs that need
// per-node precomputed data keyed by node ID; exported packages build
// richer sources (e.g. proto.StepBFS) on the same shape.
type FixedOverlaySlab[T any] struct{ Slab []T }

// At returns the slab entry for id.
func (f FixedOverlaySlab[T]) At(id graph.NodeID) T { return f.Slab[id] }
