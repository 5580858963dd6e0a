package main

import (
	"strings"

	"distmincut"
	"distmincut/internal/congest"
)

// roundLog is the traced run's congest.Observer: it keeps the round
// barrier's timings in memory and is read after the solve returns.
type roundLog struct {
	recs []roundRec
}

type roundRec struct {
	nanos, deliveryNanos int64
	woken                int
}

func (l *roundLog) ObserveRound(r congest.RoundRecord) {
	l.recs = append(l.recs, roundRec{nanos: r.Nanos, deliveryNanos: r.DeliveryNanos, woken: r.Woken})
}

// execDelivery splits the rounds' wall time into node execution and
// delivery: a round's wall time is the gap between its barrier and the
// previous one (the first round starts when setup ends), and execution
// is that wall time minus the round's delivery.
func execDelivery(setupNanos int64, recs []roundRec) (execNs, deliveryNs int64, maxWoken int) {
	prev := setupNanos
	for _, r := range recs {
		execNs += r.nanos - prev - r.deliveryNanos
		deliveryNs += r.deliveryNanos
		prev = r.nanos
		maxWoken = max(maxWoken, r.woken)
	}
	return execNs, deliveryNs, maxWoken
}

// spanTotals sums a phase tree by span name, over every depth: time,
// rounds, messages, span count, and self time (duration minus the part
// its children cover).
type spanTotals map[string]*spanSum

type spanSum struct {
	nanos, selfNanos int64
	rounds           int
	messages         int64
	count            int
}

func (t spanTotals) add(spans []*distmincut.Span) {
	for _, s := range spans {
		name := s.Name
		if i := strings.IndexByte(name, ':'); i >= 0 && !strings.HasPrefix(name, "mst:") {
			name = name[:i] // bracket:3 → bracket; the MST parts keep their names
		}
		sum := t[name]
		if sum == nil {
			sum = &spanSum{}
			t[name] = sum
		}
		sum.nanos += s.Nanos()
		sum.selfNanos += selfNanos(s)
		sum.rounds += s.Rounds()
		sum.messages += s.Messages()
		sum.count++
		t.add(s.Children)
	}
}

func (t spanTotals) get(name string) spanSum {
	if s := t[name]; s != nil {
		return *s
	}
	return spanSum{}
}

// selfNanos is a span's duration minus the union of its children's
// intervals, clipped to the span.
func selfNanos(s *distmincut.Span) int64 {
	covered := int64(0)
	end := s.StartNanos // children are in order; track the covered frontier
	for _, c := range s.Children {
		lo, hi := max(c.StartNanos, end, s.StartNanos), min(c.EndNanos, s.EndNanos)
		if hi > lo {
			covered += hi - lo
		}
		end = max(end, hi)
	}
	return s.Nanos() - covered
}

// topCovered is the wall time the top-level spans account for.
func topCovered(spans []*distmincut.Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Nanos()
	}
	return n
}
