package congest

import (
	"fmt"
	"math/rand"

	"distmincut/internal/graph"
)

type nodePhase int

const (
	// phaseIdle (the zero value) marks a node whose goroutine has not
	// been spawned yet: activation starts the program lazily, so nodes
	// never scheduled — and, before round 0, all nodes — hold no stack.
	phaseIdle nodePhase = iota
	phaseRunning
	phaseRecv
	phaseSleep
	phaseDone
)

// Node is the per-processor handle passed to the node program. All
// methods must be called only from the node's own goroutine.
type Node struct {
	id  graph.NodeID
	eng *Engine
	adj []graph.Half
	rng *rand.Rand // created lazily on first Rand call; reseeded per run

	// rngGen is the engine run the RNG was last seeded for; comparing
	// it to the engine's run counter reseeds lazily, so reused engines
	// stay bit-identical to fresh ones without an O(n) reseed pass.
	rngGen uint32

	// spawnGen is the engine run this node's goroutine was last spawned
	// for: activate spawns when it trails the engine's run counter and
	// wakes otherwise. Generation-numbering the spawn decision (instead
	// of resetting every node's phase between runs) is what lets a warm
	// engine's teardown walk only the dirty nodes.
	spawnGen uint32

	outQ []queue // staged sends, one FIFO per port; head transmitted each round
	inQ  []queue // received but not yet consumed, one FIFO per port

	phase    nodePhase
	want     Want // valid while phase == phaseRecv
	wakeAt   int  // valid while phase == phaseSleep
	parkGen  int  // incremented on every park; invalidates stale sleeper heap entries
	wakeCh   chan struct{}
	panicVal any

	// Match hint: when the scheduler wakes this node from Recv, it has
	// already found the first matching message (lowest port, FIFO within
	// a port) while evaluating the pending Want; it records that
	// position here so the woken Recv consumes it directly instead of
	// rescanning its scope.
	hintPort int32
	hintIdx  int32

	nonEmptyOut int   // number of ports with staged messages (node-local view)
	outDirty    bool  // registered in the engine's sender set
	everDirty   bool  // sent at least once this run (on the engine's dirty-node list)
	sent        int64 // messages staged by this node (summed into Stats.Sent)
}

// ID returns this node's unique identifier.
func (nd *Node) ID() graph.NodeID { return nd.id }

// N returns the number of nodes in the network.
func (nd *Node) N() int { return len(nd.eng.nodes) }

// Degree returns the number of incident edges (ports).
func (nd *Node) Degree() int { return len(nd.adj) }

// Peer returns the ID of the neighbor across port p.
func (nd *Node) Peer(p int) graph.NodeID { return nd.adj[p].Peer }

// EdgeWeight returns the weight of the edge at port p.
func (nd *Node) EdgeWeight(p int) int64 { return nd.adj[p].W }

// EdgeID returns the graph edge ID of the edge at port p.
func (nd *Node) EdgeID(p int) int { return nd.adj[p].EdgeID }

// PortTo returns the port leading to neighbor v, or -1 if v is not a
// neighbor.
func (nd *Node) PortTo(v graph.NodeID) int {
	for p, h := range nd.adj {
		if h.Peer == v {
			return p
		}
	}
	return -1
}

// Rand returns this node's private deterministic RNG. It is seeded from
// Options.Seed and the node ID on first use in each run, so programs
// that never draw randomness pay nothing for it and reused engines draw
// the same stream as fresh ones.
func (nd *Node) Rand() *rand.Rand {
	if e := nd.eng; nd.rng == nil || nd.rngGen != e.runGen {
		seed := e.opts.Seed*1_000_003 + int64(nd.id)
		if nd.rng == nil {
			nd.rng = rand.New(rand.NewSource(seed))
		} else {
			nd.rng.Seed(seed)
		}
		nd.rngGen = e.runGen
	}
	return nd.rng
}

// Round returns the current global round number.
func (nd *Node) Round() int { return nd.eng.round }

// Send stages a message on port p. The runtime transmits the head of
// each port's FIFO once per round, so k messages staged on one port
// arrive over k consecutive rounds (pipelining with its true round
// cost). Sends become visible to the network from the next round after
// the node parks.
func (nd *Node) Send(p int, m Message) {
	if p < 0 || p >= len(nd.adj) {
		panic(fmt.Sprintf("congest: node %d Send on invalid port %d (degree %d)", nd.id, p, len(nd.adj)))
	}
	nd.checkPayload(p, m)
	if !nd.outDirty {
		nd.outDirty = true
		nd.eng.addSender(nd)
	}
	q := &nd.outQ[p]
	if q.n == 0 {
		nd.nonEmptyOut++
	}
	if q.n < len(q.buf) { // inlined push fast path
		q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
		q.n++
	} else {
		q.push(&msgBufPool, m)
	}
	nd.sent++
}

// checkPayload is the payload-overflow guard every Send runs: a payload
// word outside [-PayloadLimit, PayloadLimit] panics, which surfaces as
// a PanicError from Run, unless it is one of the two exact extreme
// sentinels (math.MaxInt64 / math.MinInt64, which protocols use as
// "∞ / none" markers). Out of line so the Send fast path stays small.
func (nd *Node) checkPayload(p int, m Message) {
	const maxInt64 = int64(^uint64(0) >> 1)
	for i, w := range [PayloadWords]int64{m.A, m.B, m.C, m.D} {
		if (w > PayloadLimit || w < -PayloadLimit) && w != maxInt64 && w != -maxInt64-1 {
			panic(fmt.Sprintf(
				"congest: node %d Send on port %d: payload word %c = %d exceeds ±2^62 (kind %d tag %d) — packing overflow?",
				nd.id, p, 'A'+i, w, m.Kind, m.Tag))
		}
	}
}

// SendAll stages the same message on every port.
func (nd *Node) SendAll(m Message) {
	for p := range nd.adj {
		nd.Send(p, m)
	}
}

// TryRecv consumes and returns the first buffered message w accepts
// (lowest port in w's scope, FIFO within a port), without blocking.
func (nd *Node) TryRecv(w Want) (int, Message, bool) {
	if p, i := nd.find(&w); p >= 0 {
		return p, nd.inQ[p].removeAt(&msgBufPool, i), true
	}
	return 0, Message{}, false
}

// Recv blocks until a message w accepts is available, then consumes and
// returns it. Other messages stay buffered for later receives
// (selective receive).
func (nd *Node) Recv(w Want) (int, Message) {
	if p, m, ok := nd.TryRecv(w); ok {
		return p, m
	}
	nd.want = w
	nd.park(phaseRecv)
	// The scheduler wakes a receiving node only after its wake check
	// found a match, and nothing touches the queues between that check
	// and this activation, so the hint it left is the message to take.
	p := int(nd.hintPort)
	return p, nd.inQ[p].removeAt(&msgBufPool, int(nd.hintIdx))
}

// find returns the position (port, index within the port's FIFO) of the
// first buffered message w accepts, or (-1, -1). It walks only the ports
// in w's scope, in ascending order, and each FIFO from its head: the one
// scan behind TryRecv and the scheduler's wake check, so a hint the
// scheduler records is exactly the message TryRecv would return.
func (nd *Node) find(w *Want) (int, int) {
	if w.ports != nil {
		for _, p := range w.ports {
			if i := nd.inQ[p].find(w); i >= 0 {
				return p, i
			}
		}
		return -1, -1
	}
	for p, hi := w.lo, min(w.hi, len(nd.inQ)); p < hi; p++ {
		if i := nd.inQ[p].find(w); i >= 0 {
			return p, i
		}
	}
	return -1, -1
}

// Sleep parks the node for the given number of rounds (at least one).
// It is the mechanism for "wait out" protocol phases with known bounds.
func (nd *Node) Sleep(rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	nd.wakeAt = nd.eng.round + rounds
	nd.park(phaseSleep)
}

// Mark records a named timestamp (current round) in the run's stats.
// Typically called by one designated node at phase boundaries.
func (nd *Node) Mark(label string) {
	nd.eng.mark(label, nd.id)
}

// park hands control back to the scheduler and blocks until woken. The
// node's wake channel is created here, on its first park ever, so
// programs that run to completion without parking never allocate one;
// the channel is cached in the engine's wake slab and reused by every
// later run.
func (nd *Node) park(ph nodePhase) {
	if nd.wakeCh == nil {
		e := nd.eng
		if ch := e.wakeChs[nd.id]; ch != nil {
			nd.wakeCh = ch
		} else {
			ch = make(chan struct{}, 1)
			e.wakeChs[nd.id] = ch
			nd.wakeCh = ch
		}
	}
	nd.parkGen++
	nd.phase = ph
	nd.eng.notifyPark(nd)
	<-nd.wakeCh
	if nd.eng.aborted.Load() {
		panic(errAborted)
	}
}

// errAborted is the sentinel panic value used to unwind node goroutines
// when the engine aborts (another node panicked or limits exceeded).
var errAborted = &abortSentinel{}

type abortSentinel struct{}

func (*abortSentinel) Error() string { return "congest: run aborted" }
