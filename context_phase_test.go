package distmincut

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

// TestCancelAtEachPhaseBoundary cancels the exact pipeline inside each
// of its phases — BFS, first MST, packing orchestration (a later
// tree's MST), respect sweep, and the doubling certification tail —
// and asserts the contract the service relies on: the error maps to
// ctx.Err() (context.Canceled, never a raw runtime sentinel), and the
// engine is left clean (a warm rerun on the same engine completes and
// matches a fresh engine's stats bit for bit).
//
// Phase targets are derived from a reference run's marks: packing
// emits begin:/end: marks for every mst and respect span from node 0,
// BFS is everything before the first mark, and the certification tail
// has its own begin:certify/end:certify span.
func TestCancelAtEachPhaseBoundary(t *testing.T) {
	g := graph.PlantedCut(48, 48, 3, 0.4, 5)
	opts := func() *Options { return &Options{Seed: 2} }

	ref, err := MinCut(g, opts())
	if err != nil {
		t.Fatal(err)
	}
	marks := ref.Stats.Marks
	if len(marks) == 0 {
		t.Fatal("reference run recorded no phase marks")
	}
	var firstMST, endFirstMST, laterMST, firstRespect, endRespect int
	var beginCertify, endCertify int
	for _, m := range marks {
		switch m.Label {
		case "begin:mst":
			if firstMST == 0 {
				firstMST = m.Round
			} else if laterMST == 0 && endRespect > 0 {
				// First MST of a later packing iteration: the packing
				// orchestration is interleaving trees by now.
				laterMST = m.Round
			}
		case "end:mst":
			if endFirstMST == 0 {
				endFirstMST = m.Round
			}
		case "begin:respect":
			if firstRespect == 0 {
				firstRespect = m.Round
			}
		case "end:respect":
			if beginCertify == 0 {
				endRespect = m.Round
			}
		case "begin:certify":
			beginCertify = m.Round
		case "end:certify":
			endCertify = m.Round
		}
	}
	phases := []struct {
		name   string
		target int
	}{
		{"bfs", firstMST / 2},
		{"mst", (firstMST + endFirstMST) / 2},
		{"packing", laterMST},
		{"respect", (firstRespect + endRespect) / 2},
		{"certification", (beginCertify + endCertify) / 2},
	}

	eng := congest.NewEngine(congest.Options{})
	defer eng.Close()
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			if ph.target < 1 || ph.target >= ref.Rounds {
				t.Skipf("phase window too narrow (target %d of %d rounds)", ph.target, ref.Rounds)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pg := &congest.Progress{}
			o := opts()
			o.Engine = eng
			o.Observer = pg
			errCh := make(chan error, 1)
			go func() {
				_, err := MinCutContext(ctx, g, o)
				errCh <- err
			}()
			deadline := time.Now().Add(time.Minute)
			for pg.Round() < ph.target {
				if time.Now().After(deadline) {
					t.Fatalf("run never reached round %d", ph.target)
				}
				runtime.Gosched()
			}
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel in %s: err = %v, want context.Canceled", ph.name, err)
				}
				if errors.Is(err, congest.ErrInterrupted) {
					t.Fatalf("raw runtime sentinel leaked through: %v", err)
				}
			case <-time.After(time.Minute):
				t.Fatalf("cancel in %s: run did not return", ph.name)
			}

			// Clean engine state: the same warm engine reruns to
			// completion and matches the fresh reference bit for bit.
			res, err := MinCutContext(context.Background(), g, &Options{Seed: 2, Engine: eng})
			if err != nil {
				t.Fatalf("warm rerun after %s abort: %v", ph.name, err)
			}
			if res.Value != ref.Value || res.Rounds != ref.Rounds || res.Messages != ref.Messages {
				t.Fatalf("warm rerun after %s abort diverged: value/rounds/messages %d/%d/%d, want %d/%d/%d",
					ph.name, res.Value, res.Rounds, res.Messages, ref.Value, ref.Rounds, ref.Messages)
			}
		})
	}
}

// TestDeadlineOptionMapsToBudgetError pins the library-level deadline
// contract the service's StateDeadline classification depends on:
// Options.Deadline (and a context deadline) surface as an error
// matching congest.ErrBudgetExceeded or context.DeadlineExceeded,
// never as a bare interrupt.
func TestDeadlineOptionMapsToBudgetError(t *testing.T) {
	g := graph.PlantedCut(64, 64, 3, 0.3, 7)
	_, err := MinCut(g, &Options{Deadline: time.Now().Add(10 * time.Millisecond)})
	if err == nil {
		t.Skip("machine fast enough to finish inside the deadline")
	}
	if !errors.Is(err, congest.ErrBudgetExceeded) {
		t.Fatalf("Options.Deadline: err = %v, want ErrBudgetExceeded", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = MinCutContext(ctx, g, nil)
	if err == nil {
		t.Skip("machine fast enough to finish inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, congest.ErrBudgetExceeded) {
		t.Fatalf("ctx deadline: err = %v, want DeadlineExceeded or ErrBudgetExceeded", err)
	}
}
