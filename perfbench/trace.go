package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"ace/internal/telemetry"
)

// spanRec is one recorded span: the benchmark's own around a public
// call it makes, or a daemon's dispatch span read from its trace
// buffer. Times are offsets from the phase's base instant.
type spanRec struct {
	trace, id, parent uint64
	name              string
	service           string // recording daemon; empty for benchmark spans
	start, end        time.Duration
}

// spanLog is one caller's span recorder. It is written only by its
// caller's goroutine; on is flipped between phases, never during one.
type spanLog struct {
	on    bool
	base  time.Time
	spans []spanRec
}

// span is an open benchmark span; the zero span (tracing off) ends
// as a no-op.
type span struct {
	l     *spanLog
	sc    telemetry.SpanContext
	name  string
	start time.Time
}

// begin opens a child span of the one ctx carries and returns the
// context that makes the program's own propagation parent its spans
// under it.
func (l *spanLog) begin(ctx context.Context, name string) (context.Context, span) {
	if l == nil || !l.on {
		return ctx, span{}
	}
	sc := telemetry.FromContext(ctx).NewChild()
	return telemetry.WithSpanContext(ctx, sc), span{l: l, sc: sc, name: name, start: time.Now()}
}

func (s span) end() {
	if s.l == nil {
		return
	}
	s.l.spans = append(s.l.spans, spanRec{
		trace: s.sc.TraceID, id: s.sc.SpanID, parent: s.sc.Parent, name: s.name,
		start: s.start.Sub(s.l.base), end: time.Since(s.l.base),
	})
}

// collectDaemonSpans reads every span the daemons recorded for the
// traces the benchmark started, as dispatch.<verb> spans.
func collectDaemonSpans(bufs []*telemetry.TraceBuffer, base time.Time, traces map[uint64]bool) []spanRec {
	var out []spanRec
	for _, b := range bufs {
		for _, id := range b.TraceIDs() {
			if !traces[id] {
				continue
			}
			for _, s := range b.Trace(id) {
				start := s.Start.Sub(base)
				out = append(out, spanRec{
					trace: s.TraceID, id: s.SpanID, parent: s.Parent,
					name: "dispatch." + s.Name, service: s.Service,
					start: start, end: start + s.Duration,
				})
			}
		}
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Overlapping children (a quorum
// fan-out) are merged first, so parallel time is not subtracted twice;
// children are clipped to the parent's interval.
func selfTimes(spans []spanRec) []time.Duration {
	type key struct{ trace, id uint64 }
	children := make(map[key][]int)
	for i, s := range spans {
		if s.parent != 0 {
			k := key{s.trace, s.parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]time.Duration, len(spans))
	var iv [][2]time.Duration
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[key{s.trace, s.id}] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi time.Duration
		for j, x := range iv {
			switch {
			case j == 0:
				curLo, curHi = x[0], x[1]
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// spanSummary is the per-name aggregate of one traced phase.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50Us     float64 `json:"p50_us"`
	SelfP50Us float64 `json:"self_p50_us"`
}

// summarizeSpans aggregates duration and self time by span name.
func summarizeSpans(spans []spanRec) []spanSummary {
	self := selfTimes(spans)
	durs := map[string][]time.Duration{}
	selfs := map[string][]time.Duration{}
	for i, s := range spans {
		durs[s.name] = append(durs[s.name], s.end-s.start)
		selfs[s.name] = append(selfs[s.name], self[i])
	}
	var out []spanSummary
	for name, d := range durs {
		sortDurations(d)
		sd := selfs[name]
		sortDurations(sd)
		out = append(out, spanSummary{Name: name, Count: len(d), P50Us: us(percentile(d, 50)), SelfP50Us: us(percentile(sd, 50))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfP50 is the median self time of the spans called name (0 when
// there are none).
func selfP50(spans []spanRec, self []time.Duration, name string) time.Duration {
	var v []time.Duration
	for i, s := range spans {
		if s.name == name {
			v = append(v, self[i])
		}
	}
	sortDurations(v)
	return percentile(v, 50)
}

// durP50 is the median duration of the spans called name.
func durP50(spans []spanRec, name string) time.Duration {
	var v []time.Duration
	for _, s := range spans {
		if s.name == name {
			v = append(v, s.end-s.start)
		}
	}
	sortDurations(v)
	return percentile(v, 50)
}

// dumpSpans writes one line per span: trace, span, parent (hex), name,
// service, start and end in nanoseconds from the phase's start.
func dumpSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tspan\tparent\tname\tservice\tstart_ns\tend_ns")
	for _, s := range spans {
		svc := s.service
		if svc == "" {
			svc = "-"
		}
		fmt.Fprintf(w, "%016x\t%016x\t%016x\t%s\t%s\t%d\t%d\n", s.trace, s.id, s.parent, s.name, svc, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
