package distmincut

import (
	"context"
	"errors"
	"testing"
	"time"

	"distmincut/internal/congest"
	"distmincut/internal/graph"
)

func TestMinCutContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.PlantedCut(16, 16, 2, 0.5, 1)
	_, err := MinCutContext(ctx, g, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestMinCutContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pg := &congest.Progress{}
	g := graph.PlantedCut(64, 64, 3, 0.3, 7)
	errCh := make(chan error, 1)
	go func() {
		_, err := MinCutContext(ctx, g, &Options{Observer: pg})
		errCh <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for pg.Round() < 50 {
		if time.Now().After(deadline) {
			t.Fatal("run never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return")
	}
}

func TestContextCompletedRunUnaffected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := graph.PlantedCut(12, 12, 2, 0.6, 3)
	res, err := MinCutContext(ctx, g, nil)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("cut = %d, want planted 2", res.Value)
	}
}

func TestApproxAndRespectContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.PlantedCut(16, 16, 2, 0.5, 1)
	if _, err := ApproxMinCutContext(ctx, g, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("approx: want context.Canceled, got %v", err)
	}
	if _, _, err := OneRespectingCutContext(ctx, g, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("respect: want context.Canceled, got %v", err)
	}
}
