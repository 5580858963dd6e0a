package congest

import (
	"container/heap"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distmincut/internal/chaos"
	"distmincut/internal/graph"
)

// Options configures a simulation run.
type Options struct {
	// Seed derives every node's private RNG. Runs with equal seeds are
	// bit-identical. Zero means seed 1.
	Seed int64
	// MaxRounds aborts runs that exceed this many rounds (safety net
	// against protocol bugs). Zero means DefaultMaxRounds.
	MaxRounds int
	// Unbounded, if set, delivers the entire per-edge send queue each
	// round instead of one message, i.e. a LOCAL-model network with
	// unbounded bandwidth. Used only by the pipelining ablation (E9).
	Unbounded bool
	// DeliveryShards partitions the sender registry by node-ID range
	// into that many shards and runs the delivery and receive-matching
	// phases on that many worker goroutines. Delivery order is
	// order-independent (each (sender, port) pair feeds its own
	// per-port FIFO at the peer; see the package docs), so Stats are
	// bit-identical to serial delivery for a given seed and shard
	// count.
	//
	// Zero (the default) lets the engine pick per run by graph size:
	// serial below 2048 nodes (shardMinNodes), one shard per available
	// CPU (GOMAXPROCS) at or above it (see the "Delivery shard default"
	// note in README.md). A positive value pins that many shards; a
	// negative value (or 1) pins serial delivery on the coordinator
	// goroutine. The count is structural: it is fixed when the engine
	// is created, and SetOptions keeps it.
	DeliveryShards int
	// Interrupt, when non-nil, makes the run abort with ErrInterrupted
	// as soon as the channel is closed (or receives a value). The
	// coordinator polls it once per round boundary, while every node is
	// parked, so the abort is clean: all node goroutines unwind and the
	// partial Stats are returned alongside the error. This is the
	// mechanism behind the context-cancellable distmincut entry points.
	Interrupt <-chan struct{}
	// Deadline, when non-zero, aborts the run with a *BudgetError
	// (matching ErrBudgetExceeded) at the first round boundary past the
	// wall-clock instant. Like Interrupt, the check runs while every
	// node is parked, so the abort is clean: all node goroutines unwind
	// and the partial Stats are returned alongside the error. Combined
	// with MaxRounds this is the engine-level watchdog behind service
	// job deadlines.
	Deadline time.Time
	// Observer, when non-nil, receives one RoundRecord per simulated
	// round at the round barrier (see Observer and RoundRecord). The
	// record carries the round's delivered-message count, the next wake
	// set's size, the cumulative dirty-node count, and wall-clock
	// delivery timings (total and per shard). When Observer is nil —
	// the default — the engine skips all timing work and the round
	// barrier pays exactly one nil check: the disabled path adds no
	// allocations and no clock reads. A *Progress is the Observer for
	// sampling a running simulation from another goroutine.
	Observer Observer
}

// normalize fills Options defaults. A negative DeliveryShards becomes
// 1, so every pinned (nonzero) count stays nonzero; zero stays zero and
// is resolved per run by setupRun.
func normalize(opts Options) Options {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	if opts.DeliveryShards < 0 {
		opts.DeliveryShards = 1
	}
	return opts
}

// shardMinNodes is the graph size from which an engine with automatic
// delivery sharding (DeliveryShards zero) delivers on GOMAXPROCS shards
// instead of serially. Below it the per-round fan-out and receiver
// merge cost more than the parallel delivery saves (measured on a dense
// exchange: serial wins at 1024 nodes, sharding from 2048).
const shardMinNodes = 2048

// DefaultMaxRounds is the default safety cap on simulated rounds.
const DefaultMaxRounds = 20_000_000

// ErrDeadlock is returned when every node is parked in Recv, nothing is
// in flight, and no sleep deadline is pending.
var ErrDeadlock = errors.New("congest: deadlock")

// ErrMaxRounds is returned when the round cap is exceeded. Budget
// aborts surface as *BudgetError; errors.Is(err, ErrMaxRounds) keeps
// matching when the round cap (not the wall clock) is what tripped.
var ErrMaxRounds = errors.New("congest: exceeded MaxRounds")

// ErrBudgetExceeded matches any budget abort — round cap or wall-clock
// deadline. Use errors.As with *BudgetError to see which tripped and
// how far the run got.
var ErrBudgetExceeded = errors.New("congest: budget exceeded")

// BudgetError is the abort cause when a run exhausts its round budget
// (Options.MaxRounds) or wall-clock deadline (Options.Deadline). It
// carries how far the run got so callers can report partial progress.
type BudgetError struct {
	// RoundLimit is the MaxRounds cap when the round budget tripped,
	// zero when the wall clock did.
	RoundLimit int
	// Deadline is the wall-clock deadline when it tripped, zero
	// otherwise.
	Deadline time.Time
	// Rounds and Messages are the simulated round and cumulative
	// delivered-message count at the abort boundary.
	Rounds   int
	Messages int64
}

func (e *BudgetError) Error() string {
	if e.RoundLimit > 0 {
		return fmt.Sprintf("congest: exceeded MaxRounds (%d) at %d messages", e.RoundLimit, e.Messages)
	}
	return fmt.Sprintf("congest: deadline exceeded at round %d (%d messages)", e.Rounds, e.Messages)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match every BudgetError
// and keeps errors.Is(err, ErrMaxRounds) matching round-cap trips.
func (e *BudgetError) Is(target error) bool {
	if target == ErrBudgetExceeded {
		return true
	}
	return target == ErrMaxRounds && e.RoundLimit > 0
}

// ErrInterrupted is returned when Options.Interrupt fired and the run
// aborted at a round boundary.
var ErrInterrupted = errors.New("congest: run interrupted")

// PanicError wraps a panic raised by a node program.
type PanicError struct {
	Node  graph.NodeID
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("congest: node %d panicked: %v", e.Node, e.Value)
}

// Engine is a reusable round-synchronous CONGEST simulator. Create one
// with NewEngine and call Run once per simulation; the engine retains
// its slabs (node structs, queue headers, message rings, wake channels)
// and port tables between runs, so a warm engine's per-run setup is a
// handful of dirty-region resets instead of allocating and re-zeroing
// hundreds of megabytes. Repeat runs on the same *graph.Graph skip the
// port-table rebuild entirely; runs on a different graph reuse every
// slab whose capacity suffices. Close releases the retained slabs back
// to the process-wide pools (the engine stays usable — the next Run
// simply re-acquires them). An Engine runs one simulation at a time;
// none of its methods are safe for concurrent use. The one-shot
// package-level Run wraps NewEngine + Run + Close.
//
// Node goroutines start lazily: a node's goroutine is spawned at its
// first activation and a node's wake channel is created at its first
// park, so programs that exit without parking (sparse workloads,
// early-terminating protocol phases) never pay a wake channel.
//
// The scheduler's round loop allocates nothing in steady state: the
// sender registry, receiver set, wake list, and park notifications all
// live in reusable per-engine buffers, every queue's initial ring is
// carved out of one retained message slab, and grown rings come from a
// shared size-class pool. Per round the coordinator (1) merges newly
// registered senders into per-shard registries, (2) runs the delivery
// phase — serially, or fanned out over Options.DeliveryShards worker
// goroutines, each moving whole ring spans per port and stamping
// receivers into its own epoch-numbered generation array — then merges
// per-shard delivered counts and receiver sets, (3) computes the wake
// list from satisfied Recv predicates (evaluated in parallel over the
// same shards when the receiver set is large) and due sleepers, and
// (4) dispatches it, waking every listed node's goroutine at once.
type Engine struct {
	g       *graph.Graph
	opts    Options
	program func(*Node)
	nodes   []*Node

	round     int
	delivered int64
	wakeups   int64
	aborted   atomic.Bool

	// runGen numbers the engine's runs; per-node RNGs compare it to
	// reseed lazily on their first use in each run.
	runGen uint32

	// needFullInit forces the next Run to rebuild port tables, recarve
	// every queue, and reinitialize every node: set on engine creation,
	// graph change, Close, and after any aborted run (an abort can
	// leave traffic in arbitrary queues, beyond what the dirty-node
	// list covers).
	needFullInit bool

	// setupNanos is the wall time the last Run spent in per-run setup
	// (everything before the first node activation); surfaced as
	// Stats.SetupNanos.
	setupNanos int64

	// Observer support (all dead weight when opts.Observer is nil).
	// runStart anchors Mark.Nanos and RoundRecord.Nanos to Run entry;
	// timing caches the observer-enabled decision so the delivery path
	// reads one bool instead of an interface; obsDelivered is the
	// cumulative delivered count at the previous observed round (for
	// per-round deltas); deliverNs and shardNs are the last round's
	// delivery timings (shardNs is the scratch RoundRecord.ShardNanos
	// aliases).
	runStart     time.Time
	timing       bool
	obsDelivered int64
	deliverNs    int64
	shardNs      []int64

	// revPort[portOff[u]+p] is the port index at the peer for port p of
	// node u, precomputed flat so delivery is O(1) per message with no
	// per-node slice headers.
	revPort []int32
	portOff []int32

	// Sender registry: nodes stage themselves exactly once on their
	// first Send after being drained (guarded by Node.outDirty), so
	// delivery touches only nodes with traffic instead of scanning all
	// n every round. newSenders is written lock-free by node goroutines
	// via the newCount cursor; the coordinator distributes it over the
	// per-shard registries between rounds.
	newSenders  []*Node
	newCount    atomic.Int32
	senderCount int

	// dirtyNodes lists every node that registered as a sender at least
	// once this run. Between runs on the same graph only these nodes'
	// queues (their send rings plus the receive rings they fed at their
	// peers) need resetting — the dirty-region alternative to recarving
	// all 2·ports queue headers.
	dirtyNodes []*Node

	// Delivery shards. Serial mode is the one-shard special case run
	// inline on the coordinator; with a resolved shard count >= 2 each
	// shard owns a node-ID range of the sender registry and its own
	// epoch-stamped receiver state, merged after every delivery. Shard
	// worker goroutines are spawned per run (they are few) while the
	// shard structs and their generation arrays are retained.
	shards    []*deliveryShard
	shardDone chan struct{}

	// Merged receiver set: recvGen[v] == curGen marks v as already
	// collected this round — an epoch-numbered flat array in place of a
	// per-round map, with receivers as the reusable collection order.
	// Serial mode aliases receivers to the single shard's list.
	recvGen   []uint32
	curGen    uint32
	receivers []*Node
	wake      []*Node

	// qSlab holds every per-port queue header in one dense allocation
	// (kept small so delivery can hold it in cache); msgSlab backs the
	// initial ring of every queue (one bulk carve instead of 2*ports
	// small allocations; nil when the graph is too large and rings are
	// pooled lazily); wakeChs is the slab of per-node wake channels,
	// filled lazily as nodes first park. All three are retained by the
	// engine across runs and recycled through global pools on Close, so
	// repeated runs allocate none of them. Message slots are never
	// zeroed: Message holds no pointers and ring slots are written
	// before they are read.
	qSlab    []queue
	msgSlab  []Message
	wakeChs  []chan struct{}
	nodeSlab []Node

	// Round barrier: every dispatched node ends its activation in
	// notifyPark, which counts running down and signals roundDone at
	// zero. Nodes that parked in Sleep or exited are queued on notified
	// for the coordinator (Recv parks need no attention).
	running   atomic.Int32
	roundDone chan struct{}
	notifyMu  sync.Mutex
	notified  []*Node

	sleepers sleepHeap
	termWG   sync.WaitGroup

	marksMu sync.Mutex
	marks   []Mark
}

// deliveryShard owns one node-ID range of the sender registry plus the
// scratch state the delivery and matching phases need, so shards never
// write shared memory: delivered counts, receiver sets, and wake
// sublists are merged by the coordinator in shard order after each
// phase. Queue mutations need no synchronization because each (sender,
// port) pair feeds exactly one per-port FIFO at its peer, and a sender
// belongs to exactly one shard.
type deliveryShard struct {
	eng     *Engine
	senders []*Node
	scratch []*Node // merge buffer keeping senders ordered by node ID

	// Delivery-phase state: an epoch-stamped receiver set private to
	// this shard, plus the count of messages it moved this round.
	recvGen   []uint32
	curGen    uint32
	receivers []*Node
	delivered int64

	// Matching-phase state: the [lo, hi) chunk of the merged receiver
	// list this shard evaluates, and the wake sublist it produces.
	lo, hi int
	wake   []*Node

	// nanos is the shard's self-measured delivery wall time for the
	// current round; written only when the engine's observer timing is
	// armed.
	nanos int64

	taskCh chan shardTask // nil in serial mode (phases run inline)
}

type shardTask uint8

const (
	taskDeliver shardTask = iota
	taskMatch
)

// maxPreallocMessages caps the per-run message slab (in messages, 40 B
// each): graphs up to ~6M ports (≈3M edges) get every initial ring from
// one bulk allocation; larger graphs fall back to lazy per-queue
// allocation so slab size never exceeds ~2.7 GB.
const maxPreallocMessages = 1 << 26

// qSlabPool, msgSlabPool, wakeChPool, and nodeSlabPool recycle the
// per-engine slabs across engines (one-shot runs via the package-level
// Run acquire and release them per call, so even independent engines
// stop paying for slab allocation after the first run). Each is
// bucketed by power-of-two capacity class so engines of different
// sizes never evict each other's slabs (a pooled slab is always big
// enough for any request of its class). Queue headers and node structs
// are fully re-initialized on reuse; message slots need no zeroing
// since Message holds no pointers and ring slots are written before
// they are read; wake channels are always drained when a run ends.
var (
	qSlabPool    [48]sync.Pool
	msgSlabPool  [48]sync.Pool
	wakeChPool   [48]sync.Pool
	nodeSlabPool [48]sync.Pool
)

// slabClass is the pool bucket for a request of n elements: slabs in
// bucket c have capacity exactly 1<<c >= n.
func slabClass(n int) int {
	if n < 2 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func getQSlab(n int) []queue {
	c := slabClass(n)
	if v := qSlabPool[c].Get(); v != nil {
		return v.([]queue)[:n]
	}
	return make([]queue, 1<<c)[:n]
}

func getMsgSlab(n int) []Message {
	c := slabClass(n)
	if v := msgSlabPool[c].Get(); v != nil {
		return v.([]Message)[:n]
	}
	return make([]Message, 1<<c)[:n]
}

// getWakeSlab returns a wake-channel slab. Slots may hold drained
// channels from a previous engine (reused as-is) or nil (a channel is
// created the first time that node parks).
func getWakeSlab(n int) []chan struct{} {
	c := slabClass(n)
	if v := wakeChPool[c].Get(); v != nil {
		return v.([]chan struct{})[:n]
	}
	return make([]chan struct{}, 1<<c)[:n]
}

func getNodeSlab(n int) []Node {
	c := slabClass(n)
	if v := nodeSlabPool[c].Get(); v != nil {
		return v.([]Node)[:n]
	}
	return make([]Node, 1<<c)[:n]
}

// putNodeSlab releases a node slab, clearing every field that points
// outside the slab's own reusable state (graph adjacency, engine,
// queue and wake-channel slices, match closures) so a pooled slab
// cannot pin the last run's graph or engine until sync.Pool eviction.
// Per-node RNGs are deliberately kept: they reference only their own
// generator state and are reseeded on reuse.
func putNodeSlab(slab []Node) {
	slab = slab[:cap(slab)]
	for i := range slab {
		nd := &slab[i]
		nd.eng = nil
		nd.adj = nil
		nd.outQ = nil
		nd.inQ = nil
		nd.wakeCh = nil
		nd.match = nil
		nd.panicVal = nil
	}
	nodeSlabPool[slabClass(cap(slab))].Put(slab) //nolint:staticcheck // slice header cost is amortized over the slab
}

// NewEngine creates a reusable engine with the given options. The
// engine allocates nothing until its first Run.
func NewEngine(opts Options) *Engine {
	return &Engine{
		opts:         normalize(opts),
		roundDone:    make(chan struct{}, 1),
		needFullInit: true,
	}
}

// SetOptions replaces the engine's options between runs, except
// DeliveryShards: the engine keeps the shard count it was created with.
// Per-run knobs (Seed, Interrupt, Observer, ...) apply exactly as if the
// engine had been created with them. Must not be called while a Run is
// in flight.
func (e *Engine) SetOptions(opts Options) {
	shards := e.opts.DeliveryShards
	e.opts = normalize(opts)
	e.opts.DeliveryShards = shards
}

// Close releases the engine's retained slabs back to the process-wide
// pools. The engine remains usable: a later Run re-acquires fresh
// slabs. Closing between runs is how the one-shot package-level Run
// keeps slab reuse working across independent engines.
func (e *Engine) Close() {
	if e.qSlab != nil {
		qSlabPool[slabClass(cap(e.qSlab))].Put(e.qSlab) //nolint:staticcheck // slice header cost is amortized over the slab
		e.qSlab = nil
	}
	if e.msgSlab != nil {
		msgSlabPool[slabClass(cap(e.msgSlab))].Put(e.msgSlab) //nolint:staticcheck
		e.msgSlab = nil
	}
	if e.wakeChs != nil {
		wakeChPool[slabClass(cap(e.wakeChs))].Put(e.wakeChs) //nolint:staticcheck
		e.wakeChs = nil
	}
	if e.nodeSlab != nil {
		putNodeSlab(e.nodeSlab)
		e.nodeSlab = nil
	}
	// Every buffer below may still hold pointers into the released node
	// slab. Clearing them over their full capacity keeps them for reuse
	// without keeping the slab reachable once its pool drops it.
	e.wake = clearCap(e.wake)
	e.newSenders = clearCap(e.newSenders)
	e.receivers = clearCap(e.receivers)
	e.notified = clearCap(e.notified)
	e.sleepers = clearCap(e.sleepers)
	for _, sh := range e.shards {
		sh.senders = clearCap(sh.senders)
		sh.scratch = clearCap(sh.scratch)
		sh.receivers = clearCap(sh.receivers)
		sh.wake = clearCap(sh.wake)
	}
	e.g = nil
	e.nodes = nil
	e.dirtyNodes = nil
	e.needFullInit = true
}

// clearCap zeroes s over its full capacity and returns it emptied.
func clearCap[S ~[]T, T any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
}

// Run simulates program on every node of g and returns run statistics.
// The graph must be connected and have deterministic port numbering
// (generators call SortAdjacency; see graph docs). One-shot form of
// (*Engine).Run; see Engine for the reusable lifecycle.
func Run(g *graph.Graph, opts Options, program func(*Node)) (*Stats, error) {
	e := NewEngine(opts)
	defer e.Close()
	return e.Run(g, program)
}

// Run executes program on every node of g, each node on its own
// goroutine. Stats are bit-identical to a fresh engine's for the same
// graph, options, and seed: reuse never leaks state between runs. The
// graph must not be mutated between runs that share it.
func (e *Engine) Run(g *graph.Graph, program func(*Node)) (*Stats, error) {
	start := time.Now()
	e.runStart = start
	e.program = program
	e.setupRun(g)
	e.setupNanos = time.Since(start).Nanoseconds()
	err := e.coordinate()
	e.termWG.Wait()
	for _, sh := range e.shards {
		if sh.taskCh != nil {
			close(sh.taskCh)
			sh.taskCh = nil
		}
	}
	stats := e.collectAndReset()
	if err != nil {
		// An abort can strand messages in arbitrary queues; recarve
		// everything next time rather than trusting the dirty list.
		e.needFullInit = true
	}
	// Drop the program reference so a retained engine does not pin the
	// caller's closure between runs.
	e.program = nil
	return stats, err
}

// setupRun prepares the engine for one run: per-run counters, shard
// reconciliation, and either a full (re)build of the port tables,
// slabs, and node structs — first run, new graph, or after an abort —
// or the warm path, which resets only the queues the previous run
// dirtied.
func (e *Engine) setupRun(g *graph.Graph) {
	n := g.N()
	e.round = 0
	e.delivered = 0
	e.wakeups = 0
	e.aborted.Store(false)
	e.runGen++
	e.marks = nil
	e.timing = e.opts.Observer != nil
	e.obsDelivered = 0
	e.deliverNs = 0
	e.notified = e.notified[:0]
	e.receivers = e.receivers[:0]
	e.newCount.Store(0)
	e.senderCount = 0
	e.sleepers = e.sleepers[:0]

	full := e.needFullInit || g != e.g
	e.g = g
	if full {
		e.buildRevPorts()
	}
	ports := len(e.revPort)

	// Shard reconciliation: an automatic count (zero) resolves by graph
	// size, and the resolved count is min(count, n) so tiny graphs never
	// pay per-round task fan-out for idle shards. Generation arrays are
	// retained with their shard structs.
	want := e.opts.DeliveryShards
	if want == 0 {
		want = 1
		if n >= shardMinNodes {
			want = runtime.GOMAXPROCS(0)
		}
	}
	want = min(want, n)
	if len(e.shards) != want {
		e.shards = make([]*deliveryShard, want)
		for s := range e.shards {
			e.shards[s] = &deliveryShard{eng: e, recvGen: make([]uint32, n)}
		}
		if want > 1 {
			e.shardDone = make(chan struct{}, want)
		}
	}
	for _, sh := range e.shards {
		sh.senders = sh.senders[:0]
		sh.receivers = sh.receivers[:0]
		sh.delivered = 0
		if len(sh.recvGen) < n {
			sh.recvGen = make([]uint32, n)
			sh.curGen = 0
		}
	}
	if len(e.shards) > 1 {
		if len(e.recvGen) < n {
			e.recvGen = make([]uint32, n)
			e.curGen = 0
		}
		for _, sh := range e.shards {
			sh.taskCh = make(chan shardTask, 1)
			go sh.loop(sh.taskCh)
		}
	}

	if !full {
		// Warm path: everything structural is already in place; node
		// fields were reset when the previous run ended. Only the
		// queues dirtied last run need restoring to their carved state.
		e.resetDirtyQueues()
		return
	}

	if cap(e.newSenders) < n {
		e.newSenders = make([]*Node, n)
	} else {
		e.newSenders = e.newSenders[:n]
	}
	if cap(e.nodes) < n {
		e.nodes = make([]*Node, n)
	} else {
		e.nodes = e.nodes[:n]
	}
	e.dirtyNodes = e.dirtyNodes[:0]

	// Acquire or right-size the slabs. A slab whose capacity suffices
	// is reused in place; an undersized one returns to its pool and a
	// larger one is drawn (possibly from another engine's release).
	if cap(e.qSlab) < 2*ports {
		if e.qSlab != nil {
			qSlabPool[slabClass(cap(e.qSlab))].Put(e.qSlab) //nolint:staticcheck
		}
		e.qSlab = getQSlab(2 * ports)
	} else {
		e.qSlab = e.qSlab[:2*ports]
	}
	if want := ports * (slabOutCap + slabInCap); want <= maxPreallocMessages {
		if cap(e.msgSlab) < want {
			if e.msgSlab != nil {
				msgSlabPool[slabClass(cap(e.msgSlab))].Put(e.msgSlab) //nolint:staticcheck
			}
			e.msgSlab = getMsgSlab(want)
		} else {
			e.msgSlab = e.msgSlab[:want]
		}
	} else if e.msgSlab != nil {
		msgSlabPool[slabClass(cap(e.msgSlab))].Put(e.msgSlab) //nolint:staticcheck
		e.msgSlab = nil
	}
	if cap(e.wakeChs) < n {
		if e.wakeChs != nil {
			wakeChPool[slabClass(cap(e.wakeChs))].Put(e.wakeChs) //nolint:staticcheck
		}
		e.wakeChs = getWakeSlab(n)
	} else {
		e.wakeChs = e.wakeChs[:n]
	}
	if cap(e.nodeSlab) < n {
		if e.nodeSlab != nil {
			putNodeSlab(e.nodeSlab)
		}
		e.nodeSlab = getNodeSlab(n)
	} else {
		e.nodeSlab = e.nodeSlab[:n]
	}

	// Carve each queue's initial ring from the slab: send queues get
	// slabOutCap slots, receive queues slabInCap (see queue.go). The
	// layout is segregated, not interleaved — qSlab[0:ports] holds
	// every send-queue header in port order and qSlab[ports:] every
	// receive-queue header, with rings carved in the same two passes
	// — so the randomly-addressed receive-side state that delivery
	// hits (headers + small rings) is compact enough to stay
	// cache-resident instead of being strewn through the whole slab.
	qSlab := e.qSlab
	if e.msgSlab != nil {
		for i := 0; i < ports; i++ {
			off := i * slabOutCap
			qSlab[i] = queue{buf: e.msgSlab[off : off+slabOutCap : off+slabOutCap]}
		}
		inBase := ports * slabOutCap
		for i := 0; i < ports; i++ {
			off := inBase + i*slabInCap
			qSlab[ports+i] = queue{buf: e.msgSlab[off : off+slabInCap : off+slabInCap]}
		}
	} else {
		for i := range qSlab {
			qSlab[i] = queue{}
		}
	}
	for i := 0; i < n; i++ {
		adj := g.Adj(graph.NodeID(i))
		off := int(e.portOff[i])
		nd := &e.nodeSlab[i]
		rng := nd.rng // survives reinit; reseeded lazily via runGen
		*nd = Node{
			id:       graph.NodeID(i),
			eng:      e,
			adj:      adj,
			rng:      rng,
			outQ:     qSlab[off : off+len(adj)],
			inQ:      qSlab[ports+off : ports+off+len(adj)],
			wakeCh:   e.wakeChs[i],
			hintPort: -1,
		}
		e.nodes[i] = nd
	}
	e.needFullInit = false
}

// resetDirtyQueues restores the carved state of every queue the last
// run touched: each dirty node's send rings plus, via the reverse port
// table, the exact receive rings those sends fed at its peers. Grown
// rings return to the shared pool. Clean queues — the vast majority on
// sparse or early-terminating workloads — are left exactly as the
// carve pass wrote them.
func (e *Engine) resetDirtyQueues() {
	ports := len(e.revPort)
	for _, nd := range e.dirtyNodes {
		off := int(e.portOff[nd.id])
		for p := range nd.adj {
			q := &e.qSlab[off+p]
			if e.msgSlab != nil {
				if len(q.buf) != slabOutCap {
					msgBufPool.put(q.buf)
					mo := (off + p) * slabOutCap
					q.buf = e.msgSlab[mo : mo+slabOutCap : mo+slabOutCap]
				}
				q.head, q.n = 0, 0
			} else {
				msgBufPool.put(q.buf)
				*q = queue{}
			}
			po := int(e.portOff[nd.adj[p].Peer]) + int(e.revPort[off+p])
			iq := &e.qSlab[ports+po]
			if e.msgSlab != nil {
				if len(iq.buf) != slabInCap {
					msgBufPool.put(iq.buf)
					mo := ports*slabOutCap + po*slabInCap
					iq.buf = e.msgSlab[mo : mo+slabInCap : mo+slabInCap]
				}
				iq.head, iq.n = 0, 0
			} else {
				msgBufPool.put(iq.buf)
				*iq = queue{}
			}
		}
		nd.nonEmptyOut = 0
		nd.outDirty = false
		nd.everDirty = false
	}
	e.dirtyNodes = e.dirtyNodes[:0]
}

// collectAndReset assembles the run's Stats and resets the sent
// counters the run mutated. The walk is proportional to traffic, not
// graph size: only dirty nodes (those that sent at least once) carry a
// sent count, and undelivered leftovers can only sit in receive queues
// a dirty sender fed — each (sender, port) pair feeds exactly one
// per-port FIFO at its peer, so summing over the dirty nodes' fed
// queues counts every leftover exactly once. The other per-node run
// state needs no teardown pass at all: phase and match are cleared at
// the node's next spawn (see activate), a consumed hint always resets
// itself, and panics force a full reinitialization. Called after every
// node goroutine has exited.
func (e *Engine) collectAndReset() *Stats {
	// An abort between round barriers can leave senders registered but
	// not yet merged into the dirty list; fold them in so their sent
	// counts are included (and reset) like everyone else's.
	if k := int(e.newCount.Swap(0)); k > 0 {
		for _, nd := range e.newSenders[:k] {
			if !nd.everDirty {
				nd.everDirty = true
				e.dirtyNodes = append(e.dirtyNodes, nd)
			}
		}
	}
	var sent, leftover int64
	ports := len(e.revPort)
	for _, nd := range e.dirtyNodes {
		sent += nd.sent
		nd.sent = 0
		off := int(e.portOff[nd.id])
		for p := range nd.adj {
			po := int(e.portOff[nd.adj[p].Peer]) + int(e.revPort[off+p])
			leftover += int64(e.qSlab[ports+po].n)
		}
	}
	return &Stats{
		Rounds:     e.round,
		Sent:       sent,
		Delivered:  e.delivered,
		Wakeups:    e.wakeups,
		Leftover:   leftover,
		DirtyNodes: len(e.dirtyNodes),
		Marks:      e.marks,
		SetupNanos: e.setupNanos,
	}
}

// runNode hosts one node program, spawned at the node's first
// activation (the program starts executing immediately; there is no
// initial wake handshake).
func (e *Engine) runNode(nd *Node) {
	defer e.termWG.Done()
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			nd.panicVal = &PanicError{Node: nd.id, Value: r, Stack: string(debug.Stack())}
		}
		nd.phase = phaseDone
		e.notifyPark(nd)
	}()
	e.program(nd)
}

func (e *Engine) buildRevPorts() {
	n := e.g.N()
	if cap(e.portOff) < n+1 {
		e.portOff = make([]int32, n+1)
	} else {
		e.portOff = e.portOff[:n+1]
	}
	for u := 0; u < n; u++ {
		e.portOff[u+1] = e.portOff[u] + int32(len(e.g.Adj(graph.NodeID(u))))
	}
	ports := int(e.portOff[n])
	if cap(e.revPort) < ports {
		e.revPort = make([]int32, ports)
	} else {
		e.revPort = e.revPort[:ports]
	}
	for u := 0; u < n; u++ {
		off := e.portOff[u]
		for p, h := range e.g.Adj(graph.NodeID(u)) {
			e.revPort[off+int32(p)] = int32(e.g.PortOf(h.Peer, h.EdgeID))
		}
	}
}

// addSender registers nd in the sender set; called by node goroutines
// on the first Send after being drained.
func (e *Engine) addSender(nd *Node) {
	e.newSenders[e.newCount.Add(1)-1] = nd
}

// notifyPark ends a node activation. Called from node goroutines.
func (e *Engine) notifyPark(nd *Node) {
	if e.aborted.Load() {
		return // teardown: the coordinator only waits on termWG now
	}
	if nd.phase != phaseRecv {
		e.notifyMu.Lock()
		e.notified = append(e.notified, nd)
		e.notifyMu.Unlock()
	}
	if e.running.Add(-1) == 0 {
		e.roundDone <- struct{}{}
	}
}

// activate runs one activation of nd: the first of a run spawns the
// node's goroutine (the lazy start), later ones send a wake permit to
// its parked goroutine. The spawn decision compares the node's spawn
// generation to the engine's run counter, so per-node run state left
// behind by a previous clean run (phase, a pinned match closure) is
// cleared here, at the node's first activation, instead of by an O(n)
// teardown pass.
func (e *Engine) activate(nd *Node) {
	if nd.spawnGen != e.runGen {
		nd.spawnGen = e.runGen
		nd.phase = phaseRunning
		nd.match = nil
		e.termWG.Add(1)
		go e.runNode(nd)
		return
	}
	nd.phase = phaseRunning
	nd.wakeCh <- struct{}{}
}

// dispatch runs one activation of every node in wake and returns when
// all of them have parked or exited: every scheduled node's goroutine
// is made runnable at once.
func (e *Engine) dispatch(wake []*Node) {
	if len(wake) == 0 {
		return
	}
	e.running.Store(int32(len(wake)))
	for _, nd := range wake {
		e.activate(nd)
	}
	<-e.roundDone
}

// coordinate is the engine main loop; it runs on the caller goroutine.
// It returns nil on clean completion and the abort cause otherwise;
// stats are assembled by the caller once every node goroutine exited.
func (e *Engine) coordinate() error {
	n := len(e.nodes)
	done := 0
	var firstPanic error

	// Initial activation: every node starts (not counted in Wakeups,
	// matching the historical accounting of the engine).
	e.wake = append(e.wake[:0], e.nodes...)
	for {
		e.dispatch(e.wake)
		for _, nd := range e.notified {
			if nd.phase == phaseDone {
				done++
				if pe, ok := nd.panicVal.(*PanicError); ok && firstPanic == nil {
					firstPanic = pe
				}
			} else { // phaseSleep
				heap.Push(&e.sleepers, sleepEntry{at: nd.wakeAt, gen: nd.parkGen, nd: nd})
			}
		}
		e.notified = e.notified[:0]
		if firstPanic != nil {
			return e.abort(firstPanic)
		}
		// Every node is parked here, so an interrupt abort is clean.
		if ch := e.opts.Interrupt; ch != nil {
			select {
			case <-ch:
				return e.abort(ErrInterrupted)
			default:
			}
		}
		chaos.Inject(chaos.SiteEngineRound)
		if d := e.opts.Deadline; !d.IsZero() && !time.Now().Before(d) {
			return e.abort(&BudgetError{Deadline: d, Rounds: e.round, Messages: e.delivered})
		}
		e.mergeSenders()
		if done == n && e.senderCount == 0 {
			return nil
		}
		// Decide the next round: the immediate next one if traffic is in
		// flight, otherwise fast-forward to the earliest sleep deadline.
		if e.senderCount > 0 {
			e.round++
		} else {
			e.purgeStaleSleepers()
			if e.sleepers.Len() == 0 {
				return e.abort(e.deadlockError(done))
			}
			e.round = e.sleepers[0].at
		}
		if e.round > e.opts.MaxRounds {
			return e.abort(&BudgetError{RoundLimit: e.opts.MaxRounds, Rounds: e.round, Messages: e.delivered})
		}
		if e.timing {
			t0 := time.Now()
			e.deliver()
			e.deliverNs = time.Since(t0).Nanoseconds()
		} else {
			e.deliver()
		}
		e.buildWakeSet()
		e.wakeups += int64(len(e.wake))
		if e.opts.Observer != nil {
			e.observeRound()
		}
	}
}

// observeRound assembles and delivers the round barrier's RoundRecord
// (see Options.Observer). Out of line so the round loop stays small;
// only reached when an observer is set.
func (e *Engine) observeRound() {
	e.shardNs = e.shardNs[:0]
	for _, sh := range e.shards {
		e.shardNs = append(e.shardNs, sh.nanos)
	}
	rec := RoundRecord{
		Round:          e.round,
		Delivered:      e.delivered - e.obsDelivered,
		TotalDelivered: e.delivered,
		Woken:          len(e.wake),
		DirtyNodes:     len(e.dirtyNodes),
		Nanos:          time.Since(e.runStart).Nanoseconds(),
		DeliveryNanos:  e.deliverNs,
		ShardNanos:     e.shardNs,
	}
	e.obsDelivered = e.delivered
	e.opts.Observer.ObserveRound(rec)
}

// mergeSenders distributes nodes registered during the last activations
// over the per-shard sender registries (by node-ID range, so every
// sender is delivered by exactly one shard) and refreshes the total
// sender count the round-advance decision uses. Registries are kept
// ordered by node ID: delivery order is semantically irrelevant (see
// the package docs), but ID order makes the delivery phase stream
// sequentially through the node and queue slabs instead of hopping in
// goroutine-registration order, which is worth a large constant factor
// in cache hits on big graphs. First-time registrations also join the
// run's dirty-node list, which is what the warm-reuse reset walks.
func (e *Engine) mergeSenders() {
	k := int(e.newCount.Swap(0))
	if k > 0 {
		for _, nd := range e.newSenders[:k] {
			if !nd.everDirty {
				nd.everDirty = true
				e.dirtyNodes = append(e.dirtyNodes, nd)
			}
		}
		if len(e.shards) == 1 {
			e.shards[0].addSenders(e.newSenders[:k])
		} else {
			p, n := int64(len(e.shards)), int64(len(e.nodes))
			lo := 0
			// newSenders entries for one shard form a contiguous run
			// only after grouping; partition by shard, then bulk-add.
			sort.Slice(e.newSenders[:k], func(i, j int) bool {
				return e.newSenders[i].id < e.newSenders[j].id
			})
			for s, sh := range e.shards {
				hi := lo
				for hi < k && int64(e.newSenders[hi].id)*p/n == int64(s) {
					hi++
				}
				if hi > lo {
					sh.addSenders(e.newSenders[lo:hi])
					lo = hi
				}
			}
		}
	}
	e.senderCount = 0
	for _, sh := range e.shards {
		e.senderCount += len(sh.senders)
	}
}

// addSenders appends batch (which the caller has sorted by node ID) to
// the shard's registry and restores ID order with one backward in-place
// merge — O(len + |batch|), no full re-sort.
func (sh *deliveryShard) addSenders(batch []*Node) {
	if !sort.SliceIsSorted(batch, func(i, j int) bool { return batch[i].id < batch[j].id }) {
		// Serial mode hands the raw registration-order batch over.
		sort.Slice(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
	}
	old := len(sh.senders)
	if old == 0 {
		sh.senders = append(sh.senders, batch...)
		return
	}
	if sh.senders[old-1].id <= batch[0].id {
		sh.senders = append(sh.senders, batch...)
		return
	}
	sh.scratch = append(sh.scratch[:0], batch...)
	sh.senders = append(sh.senders, batch...)
	i, j, w := old-1, len(sh.scratch)-1, len(sh.senders)-1
	for j >= 0 && i >= 0 {
		if sh.scratch[j].id > sh.senders[i].id {
			sh.senders[w] = sh.scratch[j]
			j--
		} else {
			sh.senders[w] = sh.senders[i]
			i--
		}
		w--
	}
	for j >= 0 {
		sh.senders[w] = sh.scratch[j]
		j--
		w--
	}
}

// deliver runs the delivery phase. Serial mode runs the single shard
// inline; sharded mode fans the shards out over their worker goroutines
// and then merges the per-shard delivered counts and receiver sets in
// shard order, deduplicating receivers through the engine's own
// epoch-stamped generation array so the wake phase sees each receiver
// exactly once. Both paths produce identical message state because
// delivery is order-independent across (sender, port) pairs.
func (e *Engine) deliver() {
	if len(e.shards) == 1 {
		sh := e.shards[0]
		sh.deliver()
		e.delivered += sh.delivered
		sh.delivered = 0
		e.receivers = sh.receivers
		e.orderReceivers(sh.recvGen, sh.curGen)
		sh.receivers = e.receivers
	} else {
		for _, sh := range e.shards {
			sh.taskCh <- taskDeliver
		}
		for range e.shards {
			<-e.shardDone
		}
		e.curGen++
		if e.curGen == 0 { // generation wrapped: restart the epoch space
			for i := range e.recvGen {
				e.recvGen[i] = 0
			}
			e.curGen = 1
		}
		e.receivers = e.receivers[:0]
		for _, sh := range e.shards {
			e.delivered += sh.delivered
			sh.delivered = 0
			for _, nd := range sh.receivers {
				if e.recvGen[nd.id] != e.curGen {
					e.recvGen[nd.id] = e.curGen
					e.receivers = append(e.receivers, nd)
				}
			}
		}
		e.orderReceivers(e.recvGen, e.curGen)
	}
}

// orderReceivers rewrites e.receivers in node-ID order: a dense set is
// rebuilt with one sequential sweep of the generation array, a sparse
// one is sorted directly. Receiver order never affects Stats (matching
// is a pure per-node predicate and wake order is semantically free), but
// ID order makes the matching phase and the woken nodes' first Recv
// stream through the node and queue slabs instead of chasing the random
// peer order delivery produced.
func (e *Engine) orderReceivers(gen []uint32, cur uint32) {
	r := e.receivers
	if len(r) <= 1 {
		return
	}
	if len(r)*4 >= len(e.nodes) {
		r = r[:0]
		for i, nd := range e.nodes {
			if gen[i] == cur {
				r = append(r, nd)
			}
		}
		e.receivers = r
	} else {
		sort.Slice(r, func(i, j int) bool { return r[i].id < r[j].id })
	}
}

// loop is one shard worker: it executes delivery and matching tasks for
// its shard until the engine's run ends. The channel is passed by value
// so the goroutine never touches the taskCh field, which the
// coordinator rewrites between runs.
func (sh *deliveryShard) loop(tasks <-chan shardTask) {
	for task := range tasks {
		switch task {
		case taskDeliver:
			sh.deliver()
		case taskMatch:
			sh.match()
		}
		sh.eng.shardDone <- struct{}{}
	}
}

// deliver transmits the head (or, in Unbounded mode, the whole span) of
// every staged edge queue owned by this shard, collects the shard-local
// receiver set, and compacts the shard's sender registry in place. The
// single-message transfer is inlined — one ring read, one ring write —
// and multi-message rounds move whole ring spans with bulk copies.
func (sh *deliveryShard) deliver() {
	e := sh.eng
	var t0 time.Time
	if e.timing {
		t0 = time.Now()
	}
	unbounded := e.opts.Unbounded
	// Hot-path locals: the peer's inQ ring is addressed straight through
	// the flat port tables and the segregated queue slab (the receive
	// queue for port rp of node v is inSlab[portOff[v]+rp]), so
	// delivering a message never touches the peer's Node struct — only
	// its queue header and ring.
	inSlab := e.qSlab[len(e.revPort):]
	portOff, revPort := e.portOff, e.revPort
	sh.curGen++
	if sh.curGen == 0 { // generation wrapped: restart the epoch space
		for i := range sh.recvGen {
			sh.recvGen[i] = 0
		}
		sh.curGen = 1
	}
	sh.receivers = sh.receivers[:0]
	kept := sh.senders[:0]
	for _, nd := range sh.senders {
		off := int(portOff[nd.id])
		rev := revPort[off : off+len(nd.adj)]
		for p := range nd.outQ {
			q := &nd.outQ[p]
			if q.n == 0 {
				continue
			}
			v := nd.adj[p].Peer
			inq := &inSlab[int(portOff[v])+int(rev[p])]
			if unbounded {
				k := q.n
				q.moveTo(&msgBufPool, inq, k)
				sh.delivered += int64(k)
				nd.nonEmptyOut--
			} else {
				m := q.buf[q.head]
				q.head = (q.head + 1) & (len(q.buf) - 1)
				q.n--
				if q.n == 0 {
					q.maybeRelease(&msgBufPool)
					nd.nonEmptyOut--
				}
				if inq.n == len(inq.buf) {
					inq.grow(&msgBufPool)
				}
				inq.buf[(inq.head+inq.n)&(len(inq.buf)-1)] = m
				inq.n++
				sh.delivered++
			}
			if sh.recvGen[v] != sh.curGen {
				sh.recvGen[v] = sh.curGen
				sh.receivers = append(sh.receivers, e.nodes[v])
			}
		}
		if nd.nonEmptyOut > 0 {
			kept = append(kept, nd)
		} else {
			nd.outDirty = false
		}
	}
	sh.senders = kept
	if e.timing {
		sh.nanos = time.Since(t0).Nanoseconds()
	}
}

// match evaluates the Recv predicates of the [lo, hi) chunk of the
// merged receiver list and collects the satisfied ones into the shard's
// wake sublist. Reads queue state only; the single write per receiver
// (the match hint) goes to a node this chunk exclusively owns.
func (sh *deliveryShard) match() {
	e := sh.eng
	sh.wake = sh.wake[:0]
	for _, nd := range e.receivers[sh.lo:sh.hi] {
		if nd.phase != phaseRecv {
			continue // running sleeper accounting separately; done nodes keep leftovers
		}
		if e.matches(nd) {
			sh.wake = append(sh.wake, nd)
		}
	}
}

// parallelMatchMin is the receiver-count threshold below which the
// matching phase stays on the coordinator even when shards exist.
const parallelMatchMin = 64

// buildWakeSet fills e.wake with receivers whose Recv predicate is now
// satisfied plus sleepers whose deadline has passed. With shards and a
// large receiver set, predicate evaluation fans out over the shard
// workers in contiguous chunks whose wake sublists concatenate in chunk
// order (wake-list order never affects Stats; see the package docs).
func (e *Engine) buildWakeSet() {
	e.wake = e.wake[:0]
	if len(e.shards) > 1 && len(e.receivers) >= parallelMatchMin {
		per := (len(e.receivers) + len(e.shards) - 1) / len(e.shards)
		for i, sh := range e.shards {
			sh.lo = i * per
			if sh.lo > len(e.receivers) {
				sh.lo = len(e.receivers)
			}
			sh.hi = sh.lo + per
			if sh.hi > len(e.receivers) {
				sh.hi = len(e.receivers)
			}
			sh.taskCh <- taskMatch
		}
		for range e.shards {
			<-e.shardDone
		}
		for _, sh := range e.shards {
			e.wake = append(e.wake, sh.wake...)
		}
	} else {
		for _, nd := range e.receivers {
			if nd.phase != phaseRecv {
				continue // running sleeper accounting separately; done nodes keep leftovers
			}
			if e.matches(nd) {
				e.wake = append(e.wake, nd)
			}
		}
	}
	for e.sleepers.Len() > 0 && e.sleepers[0].at <= e.round {
		entry := heap.Pop(&e.sleepers).(sleepEntry)
		if entry.live() {
			e.wake = append(e.wake, entry.nd)
		}
	}
}

// purgeStaleSleepers drops heap entries whose node has since been woken
// and re-parked, so fast-forward targets are always live deadlines.
func (e *Engine) purgeStaleSleepers() {
	for e.sleepers.Len() > 0 && !e.sleepers[0].live() {
		heap.Pop(&e.sleepers)
	}
}

// matches reports whether nd's pending Recv predicate is satisfied,
// recording the matching (port, index) as a hint so the woken node's
// Recv can consume the message directly instead of rescanning. The scan
// order (lowest port, FIFO within a port) is exactly TryRecv's, so the
// hint is the message TryRecv would find.
func (e *Engine) matches(nd *Node) bool {
	for p := range nd.inQ {
		q := &nd.inQ[p]
		n := q.n
		if n == 0 {
			continue
		}
		mask := len(q.buf) - 1
		for i := 0; i < n; i++ {
			if nd.match(p, q.buf[(q.head+i)&mask]) {
				nd.hintPort, nd.hintIdx = int32(p), int32(i)
				return true
			}
		}
	}
	return false
}

// abort wakes every parked node so its goroutine unwinds via the
// errAborted panic and returns the causing error; never-activated
// nodes have no goroutine to unwind. It must only be called from
// coordinate, i.e. while every started node is parked; the caller
// waits for the unwind via termWG.
func (e *Engine) abort(cause error) error {
	e.aborted.Store(true)
	for _, nd := range e.nodes {
		if nd.phase == phaseRecv || nd.phase == phaseSleep {
			nd.wakeCh <- struct{}{}
		}
	}
	return cause
}

func (e *Engine) deadlockError(done int) error {
	var stuck []graph.NodeID
	for _, nd := range e.nodes {
		if nd.phase == phaseRecv {
			stuck = append(stuck, nd.id)
			if len(stuck) >= 8 {
				break
			}
		}
	}
	return fmt.Errorf("%w at round %d: %d/%d nodes done, first stuck nodes %v",
		ErrDeadlock, e.round, done, len(e.nodes), stuck)
}

func (e *Engine) mark(label string, id graph.NodeID) {
	e.marksMu.Lock()
	defer e.marksMu.Unlock()
	e.marks = append(e.marks, Mark{
		Label:     label,
		Round:     e.round,
		Node:      id,
		Delivered: e.delivered,
		Nanos:     time.Since(e.runStart).Nanoseconds(),
	})
}

// sleepEntry and sleepHeap implement the sleeper priority queue.
type sleepEntry struct {
	at  int
	gen int
	nd  *Node
}

// live reports whether the entry still refers to the node's current
// park (the node has not been woken and re-parked since).
func (s sleepEntry) live() bool {
	return s.nd.phase == phaseSleep && s.nd.parkGen == s.gen
}

type sleepHeap []sleepEntry

func (h sleepHeap) Len() int           { return len(h) }
func (h sleepHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h sleepHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x any)        { *h = append(*h, x.(sleepEntry)) }
func (h *sleepHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

var _ heap.Interface = (*sleepHeap)(nil)
