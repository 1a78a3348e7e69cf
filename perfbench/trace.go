package main

import (
	"net/http"
	"sort"

	"github.com/activeiter/activeiter/internal/telemetry"
)

// layers are the program's layers, in pipeline order, as the traced run
// names them. Every span the benchmark records belongs to one.
var layers = []string{"datagen", "metadiag", "features", "core", "partition", "distrib", "snapshot", "serve", "fleet", "setsync"}

// spanLog records one span per layer call made from the benchmark's own
// code. A nil *spanLog is the untraced run: every method is a no-op.
type spanLog struct {
	tr *telemetry.Tracer
}

func newSpanLog() *spanLog { return &spanLog{tr: telemetry.NewTracer("perfbench")} }

// span is an open layer span; nil when untraced.
type span struct {
	s *telemetry.Span
}

// start opens a root span named name (by convention "<layer>.<call>");
// child opens one under parent.
func (l *spanLog) start(layer, name string) *span {
	return l.child(0, layer, name)
}

func (l *spanLog) child(parent uint64, layer, name string) *span {
	if l == nil {
		return nil
	}
	s := l.tr.Start(name, parent)
	s.Annotate("layer", layer)
	return &span{s: s}
}

func (s *span) id() uint64 {
	if s == nil {
		return 0
	}
	return s.s.ID()
}

func (s *span) end() {
	if s != nil {
		s.s.End()
	}
}

// wrapReload records a serve.reload span for every /v1/reload the
// backend handler serves (reads are timed by the load generator
// instead: a span per read would dwarf the trace).
func (l *spanLog) wrapReload(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/reload" {
			h.ServeHTTP(w, r)
			return
		}
		sp := l.start("serve", "serve.reload")
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// spanLayer maps a recorded span to its layer: the benchmark's spans
// carry a layer annotation; spans the distrib layer records itself
// (session rounds, shard attempts, worker prepare/train/votes, the
// reconcile merge) are mapped by name.
func spanLayer(d telemetry.SpanData) string {
	for _, a := range d.Args {
		if a.Key == "layer" {
			return a.Value
		}
	}
	switch {
	case d.Name == "prepare":
		return "features" // worker-side fork, warm counting and feature matrix
	case d.Name == "train":
		return "core"
	case d.Name == "votes", d.Name == "reconcile":
		return "partition"
	default:
		return "distrib" // round, shard attempts, extract, ship
	}
}

type interval struct{ lo, hi int64 }

// unionLen is the length of the union of intervals clipped to [lo, hi).
func unionLen(iv []interval, lo, hi int64) int64 {
	var c []interval
	for _, x := range iv {
		if x.lo < lo {
			x.lo = lo
		}
		if x.hi > hi {
			x.hi = hi
		}
		if x.hi > x.lo {
			c = append(c, x)
		}
	}
	sort.Slice(c, func(a, b int) bool { return c[a].lo < c[b].lo })
	var total, curLo, curHi int64
	for i, x := range c {
		if i == 0 || x.lo > curHi {
			total += curHi - curLo
			curLo, curHi = x.lo, x.hi
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	return total + curHi - curLo
}

// traceSummary is the per-layer view of a finished trace.
type traceSummary struct {
	selfS    map[string]float64   // layer → self seconds
	byName   map[string][]float64 // span durations by name, spans started at or after since
	coverage []float64            // per job span: share of its wall covered by layer spans
}

// summarize computes each layer's self time over the whole run (span
// duration minus the part of it covered by its children), the span
// durations by name of the timed phase (spans started at or after
// since, unix nanoseconds) and, for every span named "job",
// the share of its wall time its direct children cover. Root spans
// other than jobs — the distrib layer's own round spans, server-side
// reload spans — are re-parented to the innermost benchmark span that
// contains them in time.
func (l *spanLog) summarize(since int64) traceSummary {
	ts := traceSummary{selfS: map[string]float64{}, byName: map[string][]float64{}}
	if l == nil {
		return ts
	}
	spans := l.tr.Spans()
	own := map[uint64]bool{}
	for _, s := range spans {
		for _, a := range s.Args {
			if a.Key == "layer" {
				own[s.ID] = true
			}
		}
	}
	parent := map[uint64]uint64{}
	for _, s := range spans {
		p := s.Parent
		if p == 0 && s.Name != "job" {
			var best telemetry.SpanData
			for _, o := range spans {
				if own[o.ID] && o.ID != s.ID && o.Name != "job" && o.Start <= s.Start && o.End >= s.End &&
					(best.ID == 0 || o.End-o.Start < best.End-best.Start) {
					best = o
				}
			}
			p = best.ID
		}
		parent[s.ID] = p
	}
	children := map[uint64][]interval{}
	for _, s := range spans {
		if p := parent[s.ID]; p != 0 {
			children[p] = append(children[p], interval{s.Start, s.End})
		}
	}
	for _, s := range spans {
		covered := unionLen(children[s.ID], s.Start, s.End)
		dur := s.End - s.Start
		if s.Start >= since {
			ts.byName[s.Name] = append(ts.byName[s.Name], float64(dur)/1e9)
		}
		if s.Name == "job" {
			if dur > 0 {
				ts.coverage = append(ts.coverage, float64(covered)/float64(dur))
			}
			continue
		}
		ts.selfS[spanLayer(s)] += float64(dur-covered) / 1e9
	}
	return ts
}

func (l *spanLog) writeChrome(path string) error {
	if l == nil {
		return nil
	}
	return l.tr.WriteChromeFile(path)
}
