package congest

import (
	"testing"

	"distmincut/internal/graph"
)

// TestWantScopedRecvIgnoresOutOfScopePort: node 1 of a 3-path receives
// only from node 2's port. Node 0's matching message arrives first and
// must neither satisfy nor wake the receive; node 2's message, sent
// after a sleep, wakes it in the round it arrives.
func TestWantScopedRecvIgnoresOutOfScopePort(t *testing.T) {
	g := graph.Path(3)
	const kind uint8 = 7
	run := func(outOfScope bool) (*Stats, int, int) {
		sentAt, gotAt := -1, -1
		stats, err := Run(g, Options{}, func(nd *Node) {
			switch nd.ID() {
			case 0:
				if outOfScope {
					nd.Send(0, Message{Kind: kind, A: 0})
				}
			case 2:
				nd.Sleep(3)
				sentAt = nd.Round()
				nd.Send(0, Message{Kind: kind, A: 2})
			case 1:
				from2 := nd.PortTo(2)
				p, m := nd.Recv(WantTag(0, kind).OnPort(from2))
				gotAt = nd.Round()
				if p != from2 || m.A != 2 {
					panic("scoped Recv took a message from outside its scope")
				}
				if outOfScope {
					if p, m := nd.Recv(WantTag(0, kind)); p != nd.PortTo(0) || m.A != 0 {
						panic("out-of-scope message lost")
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, sentAt, gotAt
	}
	with, sentAt, gotAt := run(true)
	if gotAt != sentAt+1 {
		t.Fatalf("scoped Recv returned in round %d, want %d (the round after node 2 sent)", gotAt, sentAt+1)
	}
	without, _, _ := run(false)
	if with.Wakeups != without.Wakeups {
		t.Fatalf("out-of-scope message changed wakeups: %d with, %d without", with.Wakeups, without.Wakeups)
	}
	if with.Leftover != 0 {
		t.Fatalf("leftover %d", with.Leftover)
	}
}

// TestWantTwoKindsFIFO: a two-kind selector takes both kinds in FIFO
// order from one port, skipping a third kind and another tag, which
// stay buffered for their own receives.
func TestWantTwoKindsFIFO(t *testing.T) {
	g := graph.Path(2)
	const kA, kB, kC uint8 = 1, 2, 3
	_, err := Run(g, Options{}, func(nd *Node) {
		if nd.ID() == 0 {
			for _, m := range []Message{
				{Kind: kA, Tag: 1, A: 9},
				{Kind: kA, A: 1},
				{Kind: kB, A: 2},
				{Kind: kC, A: 3},
				{Kind: kA, A: 4},
				{Kind: kB, A: 5},
			} {
				nd.Send(0, m)
			}
			return
		}
		want := WantTag(0, kA, kB)
		for _, a := range []int64{1, 2, 4, 5} {
			if _, m := nd.Recv(want); m.A != a {
				panic("two-kind selector broke FIFO order")
			}
		}
		if _, m := nd.Recv(WantTag(0, kC)); m.A != 3 {
			panic("third kind lost")
		}
		if _, m := nd.Recv(WantTag(1, kA)); m.A != 9 {
			panic("other tag lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWantScopedTryRecv: with a message buffered on each of a star
// center's three ports, a TryRecv scoped to ports {1, 2} sees only
// those, lowest first; one-port and empty scopes and the zero Want
// behave as documented.
func TestWantScopedTryRecv(t *testing.T) {
	g := graph.Star(4)
	const kind uint8 = 5
	_, err := Run(g, Options{}, func(nd *Node) {
		if nd.ID() != 0 {
			nd.Send(0, Message{Kind: kind, A: int64(nd.ID())})
			return
		}
		if nd.Degree() != 3 {
			panic("star center must have three ports")
		}
		nd.Sleep(2) // every leaf's message is now buffered
		if _, _, ok := nd.TryRecv(Want{}); ok {
			panic("zero Want accepted a message")
		}
		if _, _, ok := nd.TryRecv(WantTag(0, kind).OnPorts(nil)); ok {
			panic("empty scope accepted a message")
		}
		scoped := WantTag(0, kind).OnPorts([]int{1, 2})
		for _, want := range []int{1, 2} {
			if p, m, ok := nd.TryRecv(scoped); !ok || p != want || m.A != int64(nd.Peer(p)) {
				panic("scoped TryRecv did not take ports 1, 2 in order")
			}
		}
		if _, _, ok := nd.TryRecv(scoped); ok {
			panic("scoped TryRecv saw port 0")
		}
		if p, _, ok := nd.TryRecv(WantTag(0, kind).OnPort(0)); !ok || p != 0 {
			panic("port 0 message lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWantTagKindCount: a selector names one to three kinds.
func TestWantTagKindCount(t *testing.T) {
	for _, kinds := range [][]uint8{nil, {1, 2, 3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WantTag with %d kinds did not panic", len(kinds))
				}
			}()
			WantTag(0, kinds...)
		}()
	}
}

// TestWantRecvDoesNotAllocate: on a warm engine, the allocations of a
// run do not grow with the number of receives its program makes, even
// when every receive builds its selector afresh.
func TestWantRecvDoesNotAllocate(t *testing.T) {
	g := graph.Path(2)
	eng := NewEngine(Options{})
	defer eng.Close()
	allocs := func(hops int) float64 {
		ports := []int{0}
		program := func(nd *Node) {
			for i := 0; i < hops; i++ {
				if nd.ID() == 0 {
					nd.Send(0, Message{Kind: benchKind, A: int64(i)})
					nd.Recv(WantTag(0, benchKind).OnPorts(ports))
				} else {
					nd.Recv(WantTag(0, benchKind, benchKind+1).OnPort(0))
					nd.Send(0, Message{Kind: benchKind, A: int64(i)})
				}
			}
		}
		if _, err := eng.Run(g, program); err != nil { // warm up
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.Run(g, program); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(100), allocs(10_000)
	if many > few+5 {
		t.Fatalf("allocs per run grow with receives: %.0f at 100 ping-pongs, %.0f at 10000", few, many)
	}
}
