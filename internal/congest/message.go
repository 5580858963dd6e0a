// Package congest simulates the synchronous CONGEST message-passing
// model [Pel00]: n nodes with unique IDs, communication in synchronous
// rounds where each node may send one O(log n)-bit message per incident
// edge per round.
//
// # Execution model
//
// A node program is ordinary Go code, a func(*Node). Each node runs it
// on its own goroutine, which holds the program's state on its stack
// between rounds and parks by blocking in Recv or Sleep. A node stages
// outgoing messages in one FIFO per port; the runtime transmits the
// head of every FIFO each round, so multi-message transfers are
// automatically pipelined and pay their true round cost. A
// round-synchronous scheduler advances the global round only when
// every node is parked, delivers the head of every staged edge queue,
// and wakes exactly the nodes whose receive predicate is now satisfied
// or whose sleep deadline passed, making all of their goroutines
// runnable at once. Rounds with no traffic and no due wake-ups are
// fast-forwarded, and delivery walks a registry of nodes with staged
// traffic rather than all n nodes, so simulation cost is proportional
// to messages moved plus nodes woken — not n x rounds. The scheduler's
// round loop reuses per-engine scratch buffers (an epoch-stamped
// receiver array, a wake list, per-shard sender registries) and
// slab-allocates every queue and its initial ring, so steady-state
// simulation does not allocate.
//
// # Engine reuse and lazy activation
//
// An Engine is a long-lived, reusable object: NewEngine(opts) creates
// one and (*Engine).Run(g, program) executes a simulation on it. The
// engine retains its slabs (node structs, queue headers, message
// rings, wake channels) and flat port tables between runs: a warm run
// on the same graph resets only the dirty region — the queues the
// previous run's senders touched, located through the sender registry
// and the reverse port table — instead of re-zeroing everything, and a
// run on a different graph rebuilds the port tables while reusing
// every slab whose capacity fits. Stats.SetupNanos reports what setup
// remains. Close releases the slabs to process-wide pools; the
// package-level Run is the one-shot NewEngine + Run + Close.
//
// Activation is lazy: a node's goroutine is spawned at its first
// activation (round 0), and a node's wake channel is
// created only at its first park, so programs that exit without
// parking never allocate one. Per-node run state left by the previous
// run is cleared at that first activation rather than by an O(n)
// teardown pass. Reuse never leaks state: per-node RNGs reseed lazily
// per run, and a reused engine's Stats are bit-identical to a fresh
// engine's for the same graph, options, and seed.
//
// # Sharded delivery
//
// The delivery phase moves the head (or, in Unbounded mode, the whole
// ring span, with bulk copies) of every staged edge queue. With two or
// more delivery shards (a pinned Options.DeliveryShards, or GOMAXPROCS
// on graphs of at least 2048 nodes when it is zero) the sender
// registry is partitioned by node-ID range over that many worker
// goroutines, each delivering its senders and stamping receivers into
// its own epoch-numbered array; the coordinator then merges per-shard delivered counts and receiver
// sets in shard order and fans the receive-predicate evaluation back
// out over the same workers. Sharding is safe because delivery is
// order-independent: each (sender, port) pair feeds exactly one
// per-port FIFO at its peer, so no two shards ever write the same
// queue, and the merged receiver set is deduplicated before wake-up.
//
// # Determinism
//
// Activations within a round run concurrently on the woken goroutines
// but touch only their own node state; message delivery and round
// advancement happen while all nodes are parked, and each (sender,
// port) pair feeds its own per-port FIFO at the receiver, so queue
// contents are independent of delivery iteration order. Per-node RNGs
// are seeded from Options.Seed and the node ID. Two runs with the same
// graph, options, and program produce identical Stats (rounds, sent,
// delivered, wakeups, leftover) and feed an Observer the same per-round
// counts, and so do runs that differ only in Options.DeliveryShards.
// The golden fingerprints in testdata/golden.json pin these counts
// under serial and sharded delivery. The one scheduling-dependent
// quantity is the interleaving of Marks recorded by different nodes
// within the same round.
//
// # Model fidelity
//
// Messages are a fixed struct of one kind byte, one 32-bit tag, and four
// 64-bit words — O(log n) bits for every workload in this repository
// (IDs < n, weights and aggregates polynomially bounded). Nodes know
// their own ID, their neighbors' IDs, incident edge weights (the
// paper's KT1-style assumption: "initially knows the weights of edges
// incident to it"), and n. Unbounded local computation per round is
// free, as in CONGEST.
package congest

// Message is the unit of communication: a kind (protocol opcode), a tag
// (protocol instance / epoch, so that consecutive uses of a primitive
// never confuse each other's traffic), and four payload words. Total
// size is O(log n) bits in every use in this repository.
type Message struct {
	Kind uint8
	Tag  uint32
	A    int64
	B    int64
	C    int64
	D    int64
}

// PayloadWords is the number of int64 payload words per message, used
// for bit accounting in Stats.
const PayloadWords = 4

// PayloadLimit bounds the magnitude of each payload word; Send checks
// every word it stages against it. The repository's packing convention is
// at most two 31-bit fields per word (IDs < n ≤ 2^31, weights and loads
// < 2^31 per distmincut.MaxWeight), optionally with one flag carried in
// the sign — so every legitimate word has magnitude at most 2^62. A
// word beyond that almost always means a protocol's packing arithmetic
// overflowed, which the guard turns into an immediate, attributed
// failure instead of a silently wrong cut. The two exact extremes
// math.MaxInt64 and math.MinInt64 are exempt: protocols use them as
// "∞ / none" sentinels (an O(1)-bit symbol, not a counted quantity).
const PayloadLimit = int64(1) << 62

// MatchFunc decides whether a buffered or newly delivered message
// satisfies a pending Recv. It must be a pure function of its arguments:
// the coordinator evaluates it while the owning node is parked.
type MatchFunc func(port int, m Message) bool

// MatchAny accepts every message.
func MatchAny(int, Message) bool { return true }

// MatchKind accepts messages with the given kind.
func MatchKind(kind uint8) MatchFunc {
	return func(_ int, m Message) bool { return m.Kind == kind }
}

// MatchKindTag accepts messages with the given kind and tag.
func MatchKindTag(kind uint8, tag uint32) MatchFunc {
	return func(_ int, m Message) bool { return m.Kind == kind && m.Tag == tag }
}

// MatchPort accepts any message arriving on the given port.
func MatchPort(port int) MatchFunc {
	return func(p int, _ Message) bool { return p == port }
}

// MatchKindTagPort accepts messages with the given kind and tag on one
// specific port.
func MatchKindTagPort(kind uint8, tag uint32, port int) MatchFunc {
	return func(p int, m Message) bool { return p == port && m.Kind == kind && m.Tag == tag }
}
