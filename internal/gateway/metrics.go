package gateway

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"distmincut/internal/service"
)

// metrics is the gateway's live counter set. Gateway-wide counters are
// plain atomics; per-replica counters live in a map fixed at
// construction (reads never lock).
type metrics struct {
	start      time.Time
	jobsRouted atomic.Int64
	jobsFailed atomic.Int64
	jobsShed   atomic.Int64
	hedges     atomic.Int64
	hedgeWins  atomic.Int64
	reps       map[string]*replicaMetrics
}

// replicaMetrics is one replica's counter set.
type replicaMetrics struct {
	requests       atomic.Int64
	failures       atomic.Int64
	retries        atomic.Int64
	ejections      atomic.Int64
	reinstatements atomic.Int64
	replays        atomic.Int64
	latency        *service.Histogram
}

func newMetrics(names []string) *metrics {
	m := &metrics{start: time.Now(), reps: make(map[string]*replicaMetrics, len(names))}
	for _, n := range names {
		m.reps[n] = &replicaMetrics{latency: service.NewHistogram()}
	}
	return m
}

// rep returns the named replica's counters. Replica names are fixed at
// construction, so a miss is a programming error; returning a throwaway
// set keeps the proxy path panic-free regardless.
func (m *metrics) rep(name string) *replicaMetrics {
	if rm, ok := m.reps[name]; ok {
		return rm
	}
	return &replicaMetrics{latency: service.NewHistogram()}
}

// Metrics is the gateway's point-in-time metrics snapshot, served as
// JSON at /metrics?format=json and rendered as the mincutgw_*
// Prometheus families by WritePrometheus. JobsFailed counts
// submissions that failed at every routable replica — the value a
// chaos run asserts stays zero while replicas are being killed and
// rolled under it.
type Metrics struct {
	// UptimeSec is seconds since the gateway started.
	UptimeSec float64 `json:"uptime_seconds"`
	// Replicas is the configured replica count (the ring size).
	Replicas int `json:"replicas"`
	// HealthyReplicas counts replicas currently accepting new routes.
	HealthyReplicas int `json:"healthy_replicas"`
	// TrackedJobs is the number of in-flight jobs the gateway can
	// replay off a draining or dead replica.
	TrackedJobs int `json:"tracked_jobs"`
	// JobsRouted counts submissions accepted by some replica (cache
	// hits included).
	JobsRouted int64 `json:"jobs_routed"`
	// JobsFailed counts submissions that failed at every candidate
	// replica and surfaced to the client as 502.
	JobsFailed int64 `json:"jobs_failed"`
	// JobsShed counts submissions turned away with 503 because no
	// replica was accepting work (all draining, saturated, or down).
	JobsShed int64 `json:"jobs_shed"`
	// Hedges counts hedge requests launched for slow result fetches.
	Hedges int64 `json:"hedges"`
	// HedgeWins counts hedge requests that beat the primary fetch.
	HedgeWins int64 `json:"hedge_wins"`
	// PerReplica holds each replica's health state and counters, in
	// configuration order.
	PerReplica []ReplicaMetrics `json:"per_replica"`
	// Build is the gateway binary's build identity.
	Build service.BuildInfo `json:"build"`
}

// ReplicaMetrics is one replica's health state and counters inside a
// Metrics snapshot.
type ReplicaMetrics struct {
	// Name is the replica's gateway-side name (the job-ID prefix).
	Name string `json:"name"`
	// State is the health state: healthy, saturated, draining, or down.
	State string `json:"state"`
	// Reason explains a not-ready state when the replica reported one.
	Reason string `json:"reason,omitempty"`
	// Up is false only in state down (ejected).
	Up bool `json:"up"`
	// Requests counts forwarded upstream attempts (all endpoints).
	Requests int64 `json:"requests"`
	// Failures counts attempts that ended in a transport error or 5xx.
	Failures int64 `json:"failures"`
	// Retries counts submit attempts re-routed here after another
	// replica failed.
	Retries int64 `json:"retries"`
	// Ejections counts transitions into state down.
	Ejections int64 `json:"ejections"`
	// Reinstatements counts recoveries out of state down.
	Reinstatements int64 `json:"reinstatements"`
	// Replays counts tracked jobs replayed off this replica while it
	// drained or was ejected.
	Replays int64 `json:"replays"`
	// UpstreamLatency is the attempt latency histogram for this replica.
	UpstreamLatency service.HistogramSnapshot `json:"upstream_latency"`
}

// Metrics returns the gateway's current snapshot.
func (g *Gateway) Metrics() Metrics {
	m := Metrics{
		UptimeSec:  time.Since(g.m.start).Seconds(),
		Replicas:   len(g.reps),
		JobsRouted: g.m.jobsRouted.Load(),
		JobsFailed: g.m.jobsFailed.Load(),
		JobsShed:   g.m.jobsShed.Load(),
		Hedges:     g.m.hedges.Load(),
		HedgeWins:  g.m.hedgeWins.Load(),
		Build:      service.ReadBuild(),
	}
	g.mu.Lock()
	m.TrackedJobs = len(g.tracked)
	g.mu.Unlock()
	for _, rep := range g.reps {
		rep.mu.Lock()
		state, reason := rep.state, rep.reason
		rep.mu.Unlock()
		if state == stateHealthy {
			m.HealthyReplicas++
		}
		rm := g.m.rep(rep.name)
		m.PerReplica = append(m.PerReplica, ReplicaMetrics{
			Name:            rep.name,
			State:           state.String(),
			Reason:          reason,
			Up:              state != stateDown,
			Requests:        rm.requests.Load(),
			Failures:        rm.failures.Load(),
			Retries:         rm.retries.Load(),
			Ejections:       rm.ejections.Load(),
			Reinstatements:  rm.reinstatements.Load(),
			Replays:         rm.replays.Load(),
			UpstreamLatency: rm.latency.Snapshot(),
		})
	}
	return m
}

// WritePrometheus renders a gateway Metrics snapshot in the Prometheus
// text exposition format (version 0.0.4), under the mincutgw_ prefix.
// Per-replica counters carry a replica label; the upstream latency
// histogram renders the conventional cumulative le-labeled form per
// replica. The output passes cmd/metricslint, and CI holds it to that.
func WritePrometheus(w io.Writer, m Metrics) error {
	var b strings.Builder
	scalar := func(name, typ, help, val string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, val)
	}
	scalar("mincutgw_uptime_seconds", "gauge", "Seconds since the gateway started.", service.PromFloat(m.UptimeSec))
	scalar("mincutgw_replicas", "gauge", "Configured replica count (the ring size).", service.PromInt(int64(m.Replicas)))
	scalar("mincutgw_healthy_replicas", "gauge", "Replicas currently accepting new routes.", service.PromInt(int64(m.HealthyReplicas)))
	scalar("mincutgw_tracked_jobs", "gauge", "In-flight jobs the gateway can replay off a lost replica.", service.PromInt(int64(m.TrackedJobs)))
	scalar("mincutgw_jobs_routed_total", "counter", "Submissions accepted by some replica.", service.PromInt(m.JobsRouted))
	scalar("mincutgw_jobs_failed_total", "counter", "Submissions that failed at every candidate replica (HTTP 502).", service.PromInt(m.JobsFailed))
	scalar("mincutgw_jobs_shed_total", "counter", "Submissions turned away with no replica accepting work (HTTP 503).", service.PromInt(m.JobsShed))
	scalar("mincutgw_hedges_total", "counter", "Hedge requests launched for slow result fetches.", service.PromInt(m.Hedges))
	scalar("mincutgw_hedge_wins_total", "counter", "Hedge requests that returned first.", service.PromInt(m.HedgeWins))

	perRep := []struct {
		name, typ, help string
		val             func(r ReplicaMetrics) string
	}{
		{"mincutgw_replica_up", "gauge", "1 while the replica is not ejected (healthy, saturated, or draining).",
			func(r ReplicaMetrics) string {
				if r.Up {
					return "1"
				}
				return "0"
			}},
		{"mincutgw_requests_total", "counter", "Upstream attempts forwarded to the replica.",
			func(r ReplicaMetrics) string { return service.PromInt(r.Requests) }},
		{"mincutgw_failures_total", "counter", "Upstream attempts that ended in a transport error or 5xx.",
			func(r ReplicaMetrics) string { return service.PromInt(r.Failures) }},
		{"mincutgw_retries_total", "counter", "Submit attempts re-routed to the replica after another failed.",
			func(r ReplicaMetrics) string { return service.PromInt(r.Retries) }},
		{"mincutgw_ejections_total", "counter", "Health-prober ejections of the replica.",
			func(r ReplicaMetrics) string { return service.PromInt(r.Ejections) }},
		{"mincutgw_reinstatements_total", "counter", "Recoveries of the replica out of the ejected state.",
			func(r ReplicaMetrics) string { return service.PromInt(r.Reinstatements) }},
		{"mincutgw_replays_total", "counter", "Tracked jobs replayed off the replica while draining or down.",
			func(r ReplicaMetrics) string { return service.PromInt(r.Replays) }},
	}
	for _, fam := range perRep {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
		for _, r := range m.PerReplica {
			fmt.Fprintf(&b, "%s{replica=%s} %s\n", fam.name, service.PromLabel(r.Name), fam.val(r))
		}
	}

	const hist = "mincutgw_upstream_latency_seconds"
	fmt.Fprintf(&b, "# HELP %s Latency of forwarded upstream attempts, per replica.\n# TYPE %s histogram\n", hist, hist)
	for _, r := range m.PerReplica {
		service.WriteHistogramSeries(&b, hist, "replica", r.Name, r.UpstreamLatency)
	}

	const bi = "mincutgw_build_info"
	fmt.Fprintf(&b, "# HELP %s Build identity of the running gateway (constant 1).\n# TYPE %s gauge\n", bi, bi)
	fmt.Fprintf(&b, "%s{version=%s,commit=%s,goversion=%s} 1\n",
		bi, service.PromLabel(m.Build.Version), service.PromLabel(m.Build.Commit), service.PromLabel(m.Build.GoVersion))

	_, err := io.WriteString(w, b.String())
	return err
}
