// Command perfbench is distmincut's end-to-end benchmark. One run
// drives one workload through the public entry points — MinCut and
// BracketMinCut on a warm engine, or the service behind the gateway
// over HTTP — checks every answer, and prints the end-to-end metrics
// (tracing off) or, with --trace 1, the per-layer metrics read from
// the public hooks (the round observer, the phase spans, the service
// and gateway metrics and job traces). The last line of standard
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root with perfbench/run.sh, which builds
// this module and passes its arguments on:
//
//	bash perfbench/run.sh --workload exact-bridged --seed 1 --seconds 20 --trace 0
//
// See README.md beside this file for why each workload exists and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed      int64
	duration  time.Duration
	trace     bool
	tiny      bool // toy sizes, for the smoke test
	setupReps int
}

// minSolves is the fewest timed solves a closed-loop run makes, so a
// median has two samples even when one solve outlasts the window.
const minSolves = 2

// traceOut is the directory a traced run writes its spans to.
const traceOut = ".bench_build/trace"

type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome. problems are wrong answers and broken
// run-level invariants (determinism, trace coverage); any problem makes
// the run incorrect.
type result struct {
	attempted, failed int
	problems          []string
	e2e               []metric
	layers            map[string]float64
	report            []string
	spans             any // the traced run's spans, written out at the end
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// failOp records an operation that errored or answered wrong.
func (r *result) failOp(format string, args ...any) {
	r.failed++
	r.fail(format, args...)
}

// fail records a broken run-level invariant.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// perLayer names every per-layer metric, in print order; a traced run
// prints all of them, with 0 where the workload does not run the layer.
var perLayer = []struct{ name, unit string }{
	{"congest.exec_s", "s"}, {"congest.ns_per_wake", "ns"}, {"congest.wakeups", "count"}, {"congest.max_woken", "count"},
	{"congest.delivery_s", "s"}, {"congest.delivery_share", "fraction"}, {"congest.msgs_per_s", "1/s"},
	{"congest.setup_cold_ms", "ms"}, {"congest.setup_warm_us", "us"}, {"congest.dirty_nodes", "count"},
	{"congest.alloc_mb", "MB"}, {"congest.gc_cycles", "count"},
	{"graph.gen_ms", "ms"},
	{"proto.bfs_ms", "ms"}, {"proto.bfs_rounds", "count"},
	{"mst.ms", "ms"}, {"mst.rounds", "count"}, {"mst.messages", "count"},
	{"mst.part1_rounds", "count"}, {"mst.part2_rounds", "count"}, {"mst.part2_ms", "ms"},
	{"respect.ms", "ms"}, {"respect.rounds", "count"}, {"respect.messages", "count"},
	{"packing.trees", "count"}, {"packing.guesses", "count"}, {"packing.certify_ms", "ms"},
	{"packing.self_ms", "ms"}, {"packing.markside_ms", "ms"}, {"packing.evalcut_ms", "ms"},
	{"sampling.bracket_ms", "ms"}, {"sampling.bracket_rounds", "count"}, {"sampling.bracket_messages", "count"},
	{"sampling.mindeg_ms", "ms"}, {"sampling.level", "count"},
	{"service.queue_wait_p50_ms", "ms"}, {"service.build_ms", "ms"}, {"service.run_ms", "ms"},
	{"service.post_run_ms", "ms"}, {"service.setup_us", "us"}, {"service.cache_hit_ratio", "fraction"},
	{"service.coalesced", "count"}, {"service.shed", "count"}, {"service.degraded", "count"},
	{"gateway.upstream_p50_ms", "ms"}, {"gateway.hop_ms", "ms"}, {"gateway.retries", "count"},
	{"gateway.failures", "count"}, {"gateway.sticky_hit_ratio", "fraction"},
	{"client.lag_p95_ms", "ms"}, {"client.polls_per_job", "count"},
	{"trace.overhead_ratio", "fraction"}, {"trace.uncovered_ms", "ms"},
}

var workloads = []string{"exact-bridged", "exact-planted", "bracket-bridged", "service-mix"}

func runWorkload(name string, cfg config) (*result, error) {
	if p, ok := pipelines[name]; ok {
		return runPipeline(p, cfg)
	}
	if name == "service-mix" {
		return runServiceMix(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives graph generation and the request draw")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *name == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg := config{
		seed:      *seed,
		duration:  time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		setupReps: 15,
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	steal0, total0 := cpuSteal()
	res, err := runWorkload(*name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// On a virtual machine the hypervisor's steal time slows every
		// timing in the run; the share explains an outlying run.
		fmt.Printf("# cpu steal during the run: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if cfg.trace && res.spans != nil {
		if err := writeSpans(cfg, *name, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	line, err := printResult(os.Stdout, res, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(line)
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// printResult writes the human-readable report and returns the JSON
// result line.
func printResult(w io.Writer, res *result, traced bool) (string, error) {
	for _, l := range res.report {
		fmt.Fprintln(w, "  "+l)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  PROBLEM: "+p)
	}
	failedRatio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "  failed_ratio = %.4f (%d of %d operations)\n", failedRatio, res.failed, res.attempted)
	metrics := map[string]map[string]any{}
	add := func(name, unit string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value", name)
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, v, unit)
		return nil
	}
	var errs []error
	if traced {
		for _, m := range perLayer {
			errs = append(errs, add(m.name, m.unit, res.layers[m.name]))
		}
	} else {
		for _, m := range res.e2e {
			errs = append(errs, add(m.name, m.unit, m.value))
		}
	}
	if err := errors.Join(errs...); err != nil && len(res.problems) == 0 {
		return "", err
	}
	attempted := max(res.attempted, 1)
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	return string(out), err
}

// writeSpans writes the traced run's in-memory spans out as JSON.
func writeSpans(cfg config, workload string, spans any) error {
	if err := os.MkdirAll(traceOut, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(traceOut, workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// stolenPerCPU converts machine-wide steal ticks over an interval
// (USER_HZ, 100 per second on Linux) into the time stolen from each
// vCPU: what a program keeping every vCPU busy lost to the hypervisor.
// Each vCPU's counter can overcount an interval by one tick, so that
// much is left out and the result never exceeds the interval.
func stolenPerCPU(ticks int64) time.Duration {
	n := int64(runtime.NumCPU())
	return time.Duration(max(ticks-n, 0)) * 10 * time.Millisecond / time.Duration(n)
}

// cpuSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat; zeros where it is unavailable.
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // guest time (fields 9, 10) is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// sortedKeys lists a map's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
