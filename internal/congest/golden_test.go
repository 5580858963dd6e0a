package congest_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"distmincut"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/harness"
	"distmincut/internal/service"
)

// The golden fingerprints pin the observable output of the simulator
// and the protocols built on it — round, message and wakeup counts,
// the phase-mark stream, the cut and its side — so an engine change
// that is meant to be behaviour-neutral can prove it. They are
// regenerated only deliberately, with `make golden`.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// fingerprint is one case's deterministic output. Marks and Side are
// SHA-256 digests; the cut fields are zero for programs that compute
// no cut.
type fingerprint struct {
	Rounds    int    `json:"rounds"`
	Sent      int64  `json:"sent"`
	Delivered int64  `json:"delivered"`
	Wakeups   int64  `json:"wakeups"`
	Leftover  int64  `json:"leftover"`
	Marks     string `json:"marks"`
	Value     int64  `json:"value,omitempty"`
	Lo        int64  `json:"lo,omitempty"`
	Hi        int64  `json:"hi,omitempty"`
	Side      string `json:"side,omitempty"`
}

// statsFingerprint fills the engine-level fields. Marks are hashed in
// (round, label, node) order with the wall-clock Nanos left out.
func statsFingerprint(s *congest.Stats) fingerprint {
	marks := append([]congest.Mark(nil), s.Marks...)
	sort.SliceStable(marks, func(i, j int) bool {
		a, b := marks[i], marks[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Node < b.Node
	})
	h := sha256.New()
	for _, m := range marks {
		fmt.Fprintf(h, "%d %s %d %d\n", m.Round, m.Label, m.Node, m.Delivered)
	}
	return fingerprint{
		Rounds:    s.Rounds,
		Sent:      s.Sent,
		Delivered: s.Delivered,
		Wakeups:   s.Wakeups,
		Leftover:  s.Leftover,
		Marks:     hex.EncodeToString(h.Sum(nil)),
	}
}

func sideHash(side []bool) string {
	b := make([]byte, len(side))
	for i, in := range side {
		b[i] = '0'
		if in {
			b[i] = '1'
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenCase runs one case under the given delivery-shard setting.
type goldenCase func(shards int) (fingerprint, error)

// goldenCases lists every pinned case: the RNG-driven chatter workload
// on each determinism family at seed 42, and every quick service-corpus
// request through the distmincut entry point its tier names (a tiered
// request pins both of its phases).
func goldenCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	cases := map[string]goldenCase{}
	for fam, g := range congest.DeterminismFamilies() {
		cases["chatter/"+fam] = func(shards int) (fingerprint, error) {
			s, err := congest.Run(g, congest.Options{Seed: 42, DeliveryShards: shards}, congest.ChatterProgram)
			if err != nil {
				return fingerprint{}, err
			}
			return statsFingerprint(s), nil
		}
	}
	for i, req := range harness.ServiceCorpus(true) {
		canon, _, err := service.CanonicalRequest(req, service.Limits{})
		if err != nil {
			t.Fatalf("corpus entry %d: %v", i, err)
		}
		g, err := service.Build(canon.Graph)
		if err != nil {
			t.Fatalf("corpus entry %d: %v", i, err)
		}
		name := fmt.Sprintf("corpus/%02d-%s-%s", i, canon.Tier, canon.Graph.Family)
		tiers := []string{canon.Tier}
		if canon.Tier == service.TierTiered {
			tiers = []string{service.TierApprox, service.TierExact}
			name += "/"
		} else {
			name += "@"
		}
		for _, tier := range tiers {
			cases[name+tier] = func(shards int) (fingerprint, error) {
				// The engine pins the delivery shard count for every
				// phase of the entry point.
				eng := congest.NewEngine(congest.Options{DeliveryShards: shards})
				defer eng.Close()
				return runTier(g, tier, &distmincut.Options{Seed: canon.Seed, Epsilon: canon.Epsilon, Engine: eng})
			}
		}
	}
	return cases
}

// runTier runs the distmincut entry point behind a serving tier.
func runTier(g *graph.Graph, tier string, opts *distmincut.Options) (fingerprint, error) {
	ctx := context.Background()
	if tier == service.TierBracket {
		br, err := distmincut.BracketMinCutContext(ctx, g, opts)
		if err != nil {
			return fingerprint{}, err
		}
		fp := statsFingerprint(br.Stats)
		fp.Value, fp.Lo, fp.Hi, fp.Side = br.Value, br.Lo, br.Hi, sideHash(br.Side)
		return fp, nil
	}
	var res *distmincut.Result
	var err error
	switch tier {
	case service.TierExact:
		res, err = distmincut.MinCutContext(ctx, g, opts)
	case service.TierApprox:
		res, err = distmincut.ApproxMinCutContext(ctx, g, opts)
	case service.TierRespect:
		res, _, err = distmincut.OneRespectingCutContext(ctx, g, opts)
	default:
		return fingerprint{}, fmt.Errorf("unknown tier %q", tier)
	}
	if err != nil {
		return fingerprint{}, err
	}
	fp := statsFingerprint(res.Stats)
	fp.Value, fp.Side = res.Value, sideHash(res.Side)
	return fp, nil
}

// TestGoldenFingerprints checks every case under serial and sharded
// delivery against the committed fingerprints; with -update it rewrites
// the file from the serial runs (after checking the sharded ones agree).
func TestGoldenFingerprints(t *testing.T) {
	cases := goldenCases(t)
	want := map[string]fingerprint{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (generate it with `make golden`)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(cases) {
			t.Fatalf("%s has %d cases, the suite %d; regenerate with `make golden`", goldenPath, len(want), len(cases))
		}
	}
	got := map[string]fingerprint{}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, mode := range []struct {
			name   string
			shards int
		}{{"serial", -1}, {"shards-2", 2}} {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				fp, err := cases[name](mode.shards)
				if err != nil {
					t.Fatal(err)
				}
				if *updateGolden {
					if prev, ok := got[name]; ok && prev != fp {
						t.Fatalf("%s diverged from serial:\n got %+v\nwant %+v", mode.name, fp, prev)
					}
					got[name] = fp
					return
				}
				w, ok := want[name]
				if !ok {
					t.Fatalf("no golden fingerprint for %s; regenerate with `make golden`", name)
				}
				if fp != w {
					t.Fatalf("fingerprint moved:\n got %+v\nwant %+v", fp, w)
				}
			})
		}
	}
	if *updateGolden && !t.Failed() {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenPath)
	}
}
