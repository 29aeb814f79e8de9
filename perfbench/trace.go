package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"polce/internal/telemetry"
)

// tracer records the spans of a traced run in memory, through the
// program's own telemetry.Tracer, so the benchmark's spans around public
// calls and the server's request spans land in one NDJSON stream that is
// written out when the run ends. Every op is one trace: its root span is
// named "op" and every span under it shares the op's trace ID.
//
// A nil *tracer is valid and records nothing; untraced ops use it.
type tracer struct {
	t   *telemetry.Tracer
	tw  *telemetry.TraceWriter
	buf bytes.Buffer
	ops int
	// durs collects the duration of every span by name, at the
	// nanosecond resolution End returns (the NDJSON stream keeps µs).
	durs map[string]samples
}

func newTracer() *tracer {
	tr := &tracer{durs: map[string]samples{}}
	tr.tw = telemetry.NewTraceWriter(&tr.buf)
	tr.t = telemetry.NewTracer(tr.tw)
	return tr
}

// op opens the root span of one op under a fresh trace ID.
func (tr *tracer) op(ctx context.Context, id int) (context.Context, *span) {
	if tr == nil {
		return ctx, nil
	}
	tr.ops++
	ctx = telemetry.WithTraceID(ctx, fmt.Sprintf("%s%07d", opTracePrefix, id))
	return tr.span(ctx, "op")
}

// opTracePrefix starts the trace ID of every op.
const opTracePrefix = "op"

// span opens a child of ctx's innermost span.
func (tr *tracer) span(ctx context.Context, name string) (context.Context, *span) {
	if tr == nil {
		return ctx, nil
	}
	ctx, sp := tr.t.StartSpan(ctx, name)
	return ctx, &span{tr: tr, name: name, sp: sp}
}

// emit records an externally measured child span of ctx's innermost span,
// placed at start — the way the server attributes phase-timer deltas.
func (tr *tracer) emit(ctx context.Context, name string, start time.Time, d time.Duration) {
	if tr == nil || d <= 0 {
		return
	}
	tr.t.Emit(ctx, name, start, d, nil)
	tr.durs[name] = append(tr.durs[name], msOf(d))
}

// span is one open benchmark span; a nil *span is a no-op.
type span struct {
	tr   *tracer
	name string
	sp   *telemetry.TraceSpan
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.tr.durs[s.name] = append(s.tr.durs[s.name], msOf(s.sp.End()))
}

// finish flushes the in-memory spans to path as NDJSON and returns the
// spans of ops, parsed back; spans outside any op (a server's first
// snapshot capture during set-up) stay in the file only.
func (tr *tracer) finish(path string) ([]telemetry.TraceRecord, error) {
	if err := tr.tw.Close(); err != nil {
		return nil, fmt.Errorf("flushing trace: %w", err)
	}
	if err := os.WriteFile(path, tr.buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	recs, err := telemetry.ReadTrace(bytes.NewReader(tr.buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("reading trace back: %w", err)
	}
	var spans []telemetry.TraceRecord
	for _, r := range telemetry.Spans(recs) {
		if strings.HasPrefix(r.Trace, opTracePrefix) {
			spans = append(spans, r)
		}
	}
	return spans, nil
}

// selfTimes returns each span name's self time per op, in ms: a span's
// duration minus the part of its interval its children cover, summed over
// every span of that name. Spans from the server carry its own names
// (http, queue-wait, ingest-drain, snapshot-capture, ...).
func selfTimes(spans []telemetry.TraceRecord, ops int) map[string]float64 {
	children := map[string][]telemetry.TraceRecord{}
	for _, r := range spans {
		if r.Parent != "" {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	self := map[string]float64{}
	for _, r := range spans {
		self[r.Name] += float64(r.DurMicros-covered(r, children[r.Span])) / 1e3
	}
	for k := range self {
		self[k] /= float64(max(ops, 1))
	}
	return self
}

// covered returns how many µs of parent's interval the union of the
// children's intervals covers.
func covered(parent telemetry.TraceRecord, kids []telemetry.TraceRecord) int64 {
	lo, hi := parent.TMicros, parent.TMicros+parent.DurMicros
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.TMicros, lo), min(k.TMicros+k.DurMicros, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
