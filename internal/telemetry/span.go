package telemetry

// span.go is the wall-clock tracing half of the telemetry layer: a
// lightweight span API. A span is a named wall-clock interval with a
// trace identity (trace id, span id, optional parent) and string
// attributes; completed spans are collected by a Tracer and exported
// as one Chrome trace_event timeline (see spantrace.go). The
// benchmark harness's traced runs (--trace 1) use it. The simulator's
// cycle-level Sink/Event stream is a different instrument for a
// different timescale; spans measure the work around simulations
// (workloads, setup, passes), not the simulations' microarchitecture.
//
// Tracing is out-of-band by construction: spans never touch stdout,
// manifests, or cache keys, so a traced run is byte-identical to an
// untraced one.

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext is the identity of a span: enough to start a child of
// it.
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// SpanData is one completed span in export form. Times are
// microseconds (the Chrome trace_event unit): Start is absolute unix
// microseconds, Dur the span length.
type SpanData struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the parent span id within the same trace; empty for a
	// trace root.
	Parent string `json:"parent_id,omitempty"`
	Name   string `json:"name"`
	// Proc labels the process that produced the span (the tracer's
	// label); the timeline groups lanes by it.
	Proc  string            `json:"proc,omitempty"`
	Start int64             `json:"start_us"`
	Dur   int64             `json:"dur_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Context returns the span's propagation context.
func (d SpanData) Context() SpanContext {
	return SpanContext{TraceID: d.TraceID, SpanID: d.SpanID}
}

// Span is one in-flight traced interval. Start one with
// Tracer.StartTrace or Tracer.StartSpan, decorate it with SetAttr, and
// End it exactly once; End is idempotent (a second End is a no-op) and
// concurrent SetAttr/End calls are safe. A nil *Span is a valid no-op
// span, so call sites need no tracing-enabled guards.
type Span struct {
	tracer *Tracer
	start  time.Time

	mu    sync.Mutex
	data  SpanData
	ended atomic.Bool
}

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.data.Context()
}

// SetAttr records a string attribute on the span. Later values win.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended.Load() {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// End completes the span and hands it to the tracer. Exactly the first
// End takes effect; the property test pins that every started span is
// ended exactly once even under concurrent use.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	t := s.tracer
	s.mu.Lock()
	d := s.data
	s.mu.Unlock()
	d.Dur = t.now().Sub(s.start).Microseconds()
	if d.Dur < 0 {
		d.Dur = 0
	}
	t.mu.Lock()
	t.done = append(t.done, d)
	t.mu.Unlock()
	t.ended.Add(1)
}

// Tracer creates spans and collects the completed ones. It is safe for
// concurrent use; a nil *Tracer is a valid disabled tracer whose spans
// are all nil (and therefore free no-ops).
type Tracer struct {
	proc string
	now  func() time.Time
	// newID returns n cryptographically random bytes, hex encoded;
	// overridable for deterministic tests.
	newID func(n int) string

	mu   sync.Mutex
	done []SpanData

	started atomic.Uint64
	ended   atomic.Uint64
}

// NewTracer returns a tracer stamping spans with the given process
// label.
func NewTracer(proc string) *Tracer {
	return &Tracer{proc: proc, now: time.Now, newID: randomID}
}

// randomID returns n random bytes hex-encoded. Span identity only
// needs uniqueness within a timeline; crypto/rand needs no seeding.
func randomID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("telemetry: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// StartTrace starts a root span under a fresh trace id.
func (t *Tracer) StartTrace(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, SpanContext{TraceID: t.newID(16)})
}

// StartSpan starts a child of parent. An invalid parent (zero
// SpanContext) yields nil: an untraced request stays untraced rather
// than growing an orphan trace.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.start(name, parent)
}

func (t *Tracer) start(name string, parent SpanContext) *Span {
	s := &Span{
		tracer: t,
		start:  t.now(),
		data: SpanData{
			TraceID: parent.TraceID,
			SpanID:  t.newID(8),
			Parent:  parent.SpanID,
			Name:    name,
			Proc:    t.proc,
		},
	}
	s.data.Start = s.start.UnixMicro()
	t.started.Add(1)
	return s
}

// Drain returns every completed span collected so far and clears the
// collection. Spans still in flight are not included; end them first.
func (t *Tracer) Drain() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.done
	t.done = nil
	t.mu.Unlock()
	return out
}

// Counts returns how many spans this tracer has started and ended —
// the balance the span-lifecycle property test checks.
func (t *Tracer) Counts() (started, ended uint64) {
	if t == nil {
		return 0, 0
	}
	return t.started.Load(), t.ended.Load()
}
