package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promMetric is one exposition line group: name, type, help, value.
type promMetric struct {
	name  string
	typ   string // "gauge" or "counter"
	help  string
	value string
}

// PromFloat renders a sample value or bucket bound in the Prometheus
// text exposition format.
func PromFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromInt renders an integer sample value in the Prometheus text
// exposition format.
func PromInt(v int64) string { return strconv.FormatInt(v, 10) }

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromLabel renders a label value quoted and escaped per the
// exposition format: backslash, double quote and newline are escaped,
// every other byte is written as is.
func PromLabel(v string) string { return `"` + labelEscaper.Replace(v) + `"` }

// WritePrometheus renders a Metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters keep the conventional
// _total suffix; the JSON field names remain available verbatim at
// /metrics?format=json. Every overload outcome is a first-class
// series: jobs_deadline_total, jobs_degraded_total, jobs_shed_total,
// and the three admission decision counters.
func WritePrometheus(w io.Writer, m Metrics) error {
	ms := []promMetric{
		{"mincutd_uptime_seconds", "gauge", "Seconds since the service started.", PromFloat(m.UptimeSec)},
		{"mincutd_pool_size", "gauge", "Worker pool size.", PromInt(int64(m.PoolSize))},
		{"mincutd_queue_depth", "gauge", "Jobs accepted but not yet running.", PromInt(int64(m.QueueDepth))},
		{"mincutd_queue_capacity", "gauge", "Queue capacity (submissions beyond it are shed).", PromInt(int64(m.QueueCapacity))},
		{"mincutd_jobs_running", "gauge", "Executions currently running a protocol.", PromInt(int64(m.Running))},
		{"mincutd_jobs_refining", "gauge", "Tiered executions refining past a published approx answer.", PromInt(int64(m.Refining))},
		{"mincutd_jobs_submitted_total", "counter", "Accepted submissions (bad specs and shed requests excluded).", PromInt(m.Submitted)},
		{"mincutd_jobs_completed_total", "counter", "Executions finished with a result.", PromInt(m.Completed)},
		{"mincutd_jobs_failed_total", "counter", "Executions finished with an error.", PromInt(m.Failed)},
		{"mincutd_jobs_canceled_total", "counter", "Job records canceled by request or drain.", PromInt(m.Canceled)},
		{"mincutd_jobs_deadline_total", "counter", "Job records killed by wall-clock deadline or round budget.", PromInt(m.Deadlined)},
		{"mincutd_jobs_degraded_total", "counter", "Submissions served below their requested tier by queue pressure.", PromInt(m.Degraded)},
		{"mincutd_jobs_shed_total", "counter", "Submissions turned away on a full queue (HTTP 503).", PromInt(m.Shed)},
		{"mincutd_jobs_coalesced_total", "counter", "Submissions coalesced onto an in-flight execution.", PromInt(m.Coalesced)},
		{"mincutd_admission_checks_total", "counter", "Bracket pre-passes run (or cache-served) for admission control.", PromInt(m.AdmissionChecks)},
		{"mincutd_admission_rejected_total", "counter", "Submissions rejected over the admission ceiling (HTTP 429).", PromInt(m.AdmissionRejected)},
		{"mincutd_admission_downtiered_total", "counter", "Over-ceiling submissions served at the approx tier instead.", PromInt(m.AdmissionDowntiered)},
		{"mincutd_cache_hits_total", "counter", "Result-cache hits.", PromInt(m.CacheHits)},
		{"mincutd_cache_misses_total", "counter", "Result-cache misses.", PromInt(m.CacheMisses)},
		{"mincutd_cache_hit_ratio", "gauge", "Cache hits over lookups since start.", PromFloat(m.CacheHitRate)},
		{"mincutd_cache_entries", "gauge", "Entries resident in the result cache.", PromInt(int64(m.CacheEntries))},
		{"mincutd_rounds_total", "counter", "CONGEST rounds simulated by completed executions.", PromInt(m.RoundsTotal)},
		{"mincutd_rounds_per_second", "gauge", "Completed rounds over cumulative pool busy time.", PromFloat(m.RoundsPerSec)},
		{"mincutd_live_rounds", "gauge", "Current round gauges of running executions, summed.", PromInt(m.LiveRounds)},
	}
	var b strings.Builder
	for _, pm := range ms {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", pm.name, pm.help, pm.name, pm.typ, pm.name, pm.value)
	}
	writeBuildInfo(&b, m.Build)
	writePhaseCounters(&b, "mincutd_phase_rounds_total",
		"CONGEST rounds spent per protocol phase group across completed runs.", m.PhaseRounds)
	writePhaseCounters(&b, "mincutd_phase_messages_total",
		"Messages delivered per protocol phase group across completed runs.", m.PhaseMessages)
	writeHistograms(&b, m.TierLatency)
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBuildInfo renders the conventional build-identity gauge: a
// constant 1 whose labels carry the version, commit, and toolchain.
func writeBuildInfo(b *strings.Builder, bi BuildInfo) {
	const name = "mincutd_build_info"
	fmt.Fprintf(b, "# HELP %s Build identity of the running binary (constant 1).\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(b, "%s{version=%s,commit=%s,goversion=%s} 1\n",
		name, PromLabel(bi.Version), PromLabel(bi.Commit), PromLabel(bi.GoVersion))
}

// writePhaseCounters renders one phase-labeled counter family in
// sorted label order (the exposition format forbids interleaving
// families, and sorted keys keep scrapes diffable).
func writePhaseCounters(b *strings.Builder, name, help string, vals map[string]int64) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{phase=%s} %s\n", name, PromLabel(k), PromInt(vals[k]))
	}
}

// writeHistograms renders the per-tier job-latency histogram family:
// cumulative le-labeled buckets (with the mandatory +Inf), _sum and
// _count per tier, tiers in sorted order.
func writeHistograms(b *strings.Builder, tiers map[string]HistogramSnapshot) {
	if len(tiers) == 0 {
		return
	}
	const name = "mincutd_job_duration_seconds"
	fmt.Fprintf(b, "# HELP %s Job latency from submission to done, per serving tier (cache hits included).\n# TYPE %s histogram\n", name, name)
	keys := make([]string, 0, len(tiers))
	for k := range tiers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, tier := range keys {
		WriteHistogramSeries(b, name, "tier", tier, tiers[tier])
	}
}

// WriteHistogramSeries renders one labeled series of a histogram
// family (whose HELP and TYPE lines the caller has written): the
// cumulative le-labeled buckets with the mandatory +Inf, then _sum and
// _count, each carrying the label key=value.
func WriteHistogramSeries(b *strings.Builder, name, key, value string, h HistogramSnapshot) {
	label := key + "=" + PromLabel(value)
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%s,le=%s} %s\n", name, label, PromLabel(PromFloat(bound)), PromInt(cum))
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %s\n", name, label, PromInt(cum))
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, label, PromFloat(h.SumSeconds))
	fmt.Fprintf(b, "%s_count{%s} %s\n", name, label, PromInt(h.Count))
}
