package congest

import (
	"sync"
	"sync/atomic"
)

// RoundRecord is one per-round observation delivered to an Observer at
// the round barrier, after the round's messages were delivered and the
// next wake set was computed. All counters describe the run so far from
// the coordinator's point of view; nothing in a RoundRecord affects the
// simulation.
type RoundRecord struct {
	// Round is the round number that just completed delivery.
	Round int
	// Delivered is the number of messages delivered in this round;
	// TotalDelivered the cumulative count for the run.
	Delivered      int64
	TotalDelivered int64
	// Woken is the number of node activations scheduled for the next
	// dispatch (satisfied Recv predicates plus due sleepers).
	Woken int
	// DirtyNodes is the cumulative number of nodes that have sent at
	// least one message this run — the size of the dirty set the warm
	// teardown and reset walks are proportional to.
	DirtyNodes int
	// Nanos is wall time in nanoseconds since Run was entered (engine
	// setup included), sampled at the round barrier. Subtracting two
	// consecutive records' Nanos gives the wall cost of a round.
	Nanos int64
	// DeliveryNanos is the wall time the round's delivery phase took,
	// as seen by the coordinator (fan-out and merge included).
	DeliveryNanos int64
	// ShardNanos holds each delivery shard's self-measured delivery
	// time for the round; serial runs have exactly one entry. The slice
	// aliases an engine-owned scratch buffer that is overwritten every
	// round — observers that retain records must copy it.
	ShardNanos []int64
}

// Observer receives one RoundRecord per simulated round (see
// Options.Observer). ObserveRound is called on the coordinator
// goroutine between rounds, while every node is parked, so
// implementations may read the record without synchronization but block
// the simulation for as long as they run. A nil Observer costs one
// predictable branch per round and nothing else.
type Observer interface {
	ObserveRound(RoundRecord)
}

// Progress is an Observer that keeps only the latest round number and
// cumulative delivered-message count, so a concurrent reader (e.g. a
// job-status endpoint) can sample a running simulation. All methods are
// safe to call from any goroutine while the run is in flight; values
// are monotone within a run and settle at the run's final Stats
// (Rounds, Delivered) when it ends.
type Progress struct {
	round     atomic.Int64
	delivered atomic.Int64
}

// ObserveRound stores the record's round and cumulative delivered count.
func (p *Progress) ObserveRound(rec RoundRecord) {
	p.round.Store(int64(rec.Round))
	p.delivered.Store(rec.TotalDelivered)
}

// Round returns the round number most recently completed.
func (p *Progress) Round() int { return int(p.round.Load()) }

// Delivered returns the cumulative messages delivered so far.
func (p *Progress) Delivered() int64 { return p.delivered.Load() }

// FlightRecorder is an Observer retaining the last K rounds in a fixed
// ring — a post-mortem buffer for deadline and budget aborts: when a
// run is killed mid-flight, Tail returns where its final rounds went.
// The ring's record slots and their ShardNanos backing arrays are
// allocated once and reused, so steady-state recording does not
// allocate. Tail and Reset are safe to call concurrently with the
// recording run.
type FlightRecorder struct {
	mu      sync.Mutex
	recs    []RoundRecord
	shardNs [][]int64 // per-slot backing for the retained ShardNanos copies
	next    int
	count   int
}

// DefaultFlightRounds is the ring size NewFlightRecorder(0) resolves
// to: enough tail to see a stall pattern, small enough to be free.
const DefaultFlightRounds = 64

// NewFlightRecorder returns a recorder keeping the last k rounds; k <=
// 0 resolves to DefaultFlightRounds.
func NewFlightRecorder(k int) *FlightRecorder {
	if k <= 0 {
		k = DefaultFlightRounds
	}
	return &FlightRecorder{
		recs:    make([]RoundRecord, k),
		shardNs: make([][]int64, k),
	}
}

// ObserveRound records rec, evicting the oldest retained round once the
// ring is full. The record's ShardNanos is copied into the slot's own
// backing array, so the engine's scratch buffer is never retained.
func (f *FlightRecorder) ObserveRound(rec RoundRecord) {
	f.mu.Lock()
	slot := f.next
	buf := append(f.shardNs[slot][:0], rec.ShardNanos...)
	f.shardNs[slot] = buf
	rec.ShardNanos = buf
	f.recs[slot] = rec
	f.next = (f.next + 1) % len(f.recs)
	if f.count < len(f.recs) {
		f.count++
	}
	f.mu.Unlock()
}

// Tail returns the retained rounds, oldest first. The returned slice
// and its ShardNanos are fresh copies, safe to hold across further
// recording.
func (f *FlightRecorder) Tail() []RoundRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RoundRecord, 0, f.count)
	start := f.next - f.count
	if start < 0 {
		start += len(f.recs)
	}
	for i := 0; i < f.count; i++ {
		rec := f.recs[(start+i)%len(f.recs)]
		rec.ShardNanos = append([]int64(nil), rec.ShardNanos...)
		out = append(out, rec)
	}
	return out
}

// Reset empties the ring (the backing arrays are kept for reuse), so
// one recorder can be re-armed across successive runs.
func (f *FlightRecorder) Reset() {
	f.mu.Lock()
	f.next, f.count = 0, 0
	f.mu.Unlock()
}
