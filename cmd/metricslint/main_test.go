package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distmincut/internal/gateway"
	"distmincut/internal/service"
)

// TestGatewayEscapedReplicaLabel: a replica name holding a double quote
// and a backslash is escaped exactly once in the gateway exposition,
// the output passes the linter, and the linter reads the name back.
func TestGatewayEscapedReplicaLabel(t *testing.T) {
	const name = `a"b\c`
	m := gateway.Metrics{
		Replicas: 1,
		PerReplica: []gateway.ReplicaMetrics{{
			Name: name,
			Up:   true,
			UpstreamLatency: service.HistogramSnapshot{
				Bounds: []float64{0.5, 1},
				Counts: []int64{1, 0, 2},
				Count:  3,
			},
		}},
	}
	var b strings.Builder
	if err := gateway.WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`mincutgw_replica_up{replica="a\"b\\c"} 1`,
		`mincutgw_upstream_latency_seconds_bucket{replica="a\"b\\c",le="+Inf"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s in:\n%s", want, text)
		}
	}

	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if code := run(f); code != 0 {
		t.Fatalf("metricslint exit %d on:\n%s", code, text)
	}

	s, err := parseSample(`mincutgw_replica_up{replica="a\"b\\c"} 1`)
	if err != nil {
		t.Fatal(err)
	}
	if s.labels["replica"] != name {
		t.Fatalf("linter read replica %q, want %q", s.labels["replica"], name)
	}
}
