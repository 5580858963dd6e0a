package congest_test

import (
	"runtime"
	"slices"
	"testing"

	"distmincut"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// shardWidths is an Observer that records the distinct per-round
// delivery shard counts (len(RoundRecord.ShardNanos)) of a run, in
// order of appearance.
type shardWidths struct{ seen []int }

func (w *shardWidths) ObserveRound(r congest.RoundRecord) {
	if n := len(r.ShardNanos); !slices.Contains(w.seen, n) {
		w.seen = append(w.seen, n)
	}
}

// exchangeOnce trades one message with every neighbor.
func exchangeOnce(nd *congest.Node) {
	nd.SendAll(congest.Message{Kind: 1, A: int64(nd.ID())})
	for i := 0; i < nd.Degree(); i++ {
		nd.Recv(congest.MatchKind(1))
	}
}

// TestDeliveryShardRule checks, through the public observer, how an
// engine picks its delivery shard count: serial below ShardMinNodes
// nodes, GOMAXPROCS shards at or above it, and a count pinned at engine
// creation surviving the option rewrite every distmincut run performs.
func TestDeliveryShardRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		name string
		n    int
		want int
	}{
		{"below", congest.ShardMinNodes - 1, 1},
		{"at", congest.ShardMinNodes, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &shardWidths{}
			if _, err := congest.Run(graph.Cycle(tc.n), congest.Options{Observer: w}, exchangeOnce); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(w.seen, []int{tc.want}) {
				t.Fatalf("n=%d delivered on %v shards, want [%d]", tc.n, w.seen, tc.want)
			}
		})
	}
	t.Run("pinned-engine", func(t *testing.T) {
		eng := congest.NewEngine(congest.Options{DeliveryShards: 2})
		defer eng.Close()
		w := &shardWidths{}
		g := graph.PlantedCut(16, 16, 2, 0.5, 3)
		if _, err := distmincut.BracketMinCut(g, &distmincut.Options{Engine: eng, Observer: w}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w.seen, []int{2}) {
			t.Fatalf("pinned engine delivered on %v shards, want [2]", w.seen)
		}
	})
}
