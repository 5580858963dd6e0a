// Scale: how far the CONGEST engine reaches on one machine.
//
// Sweeps random-regular expanders and sparse G(n,p) graphs from tens of
// thousands up through a million edges, runs a full message-exchange
// round on each (every node trades one message with every neighbor —
// the densest uniform load the model admits), and prints rounds,
// messages, wall time, and delivery throughput per size. This is the
// scaling walk behind the BenchmarkEngineMillion* workloads: the same
// engine that replays the paper's experiments on 48-node graphs drives
// million-edge simulations at hardware speed.
//
//	go run ./examples/scale [-max-edges 1000000] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"time"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

const exchangeKind uint8 = 0x51

// exchange stages one message per port and consumes one per port — a
// single full-bandwidth CONGEST round plus drain.
func exchange(nd *congest.Node) {
	nd.SendAll(congest.Message{Kind: exchangeKind, A: int64(nd.ID())})
	match := congest.MatchKind(exchangeKind)
	for i := nd.Degree(); i > 0; i-- {
		nd.Recv(match)
	}
}

func main() {
	maxEdges := flag.Int("max-edges", 1_000_000, "largest workload size, in edges")
	seed := flag.Int64("seed", 1, "seed for graph generation and the runtime")
	flag.Parse()

	// One reusable engine drives the whole sweep: each size step reuses
	// (or grows) the previous step's slabs instead of re-allocating
	// them, which is the congest.NewEngine lifecycle production callers
	// use.
	eng := congest.NewEngine(congest.Options{Seed: *seed})
	defer eng.Close()
	fmt.Printf("engine sweep: seed=%d\n\n", *seed)
	fmt.Printf("%-22s %10s %10s %8s %12s %10s %12s\n",
		"workload", "n", "m", "rounds", "messages", "wall", "msgs/s")

	run := func(name string, g *graph.Graph) {
		start := time.Now()
		stats, err := eng.Run(g, exchange)
		if err != nil {
			fmt.Printf("%-22s %10d %10d  error: %v\n", name, g.N(), g.M(), err)
			return
		}
		wall := time.Since(start)
		fmt.Printf("%-22s %10d %10d %8d %12d %10s %12.0f\n",
			name, g.N(), g.M(), stats.Rounds, stats.Delivered,
			wall.Round(time.Millisecond), float64(stats.Delivered)/wall.Seconds())
	}

	// 8-regular expanders: m = 4n, the paper's hard instances.
	for _, n := range []int{10_000, 50_000, 100_000, 250_000} {
		if 4*n > *maxEdges {
			break
		}
		run(fmt.Sprintf("regular n=%dk d=8", n/1000), graph.RandomRegular(n, 8, *seed))
	}
	// Sparse G(n, 8/n): expected m ≈ 4n with skewed degrees. The
	// geometric skip sampler generates these in O(n + m), so the arm
	// sweeps to a million edges like the regular one.
	for _, n := range []int{25_000, 100_000, 250_000} {
		if 4*n > *maxEdges {
			break
		}
		run(fmt.Sprintf("gnp n=%dk p=8/n", n/1000), graph.GNP(n, 8/float64(n), *seed+1))
	}

	fmt.Println("\nrounds stay flat while n and m grow 25x: simulation cost is")
	fmt.Println("proportional to messages moved plus nodes woken, never n x rounds.")
}
