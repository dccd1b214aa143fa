// Package obs is the solver stack's deterministic observability layer:
// a span/event tracer that records the qMKP probe tree (binary-search
// probe → qTKP tries → Grover iterations → oracle sweeps) and anneal
// shot batches, plus a counter/gauge registry exposed via expvar and a
// JSON dump.
//
// Determinism contract (DESIGN.md §9): ordering in the trace is carried
// by monotonic sequence numbers assigned on the emitting goroutine —
// always the serial orchestration path (the probe loop, the Grover try
// loop, the shot-ordered anneal merge), never a pool worker. Wall time
// appears only as an annotation on completed spans (Span.Elapsed) and
// is excluded from the deterministic JSONL encoding, so traces are
// bit-identical at any REPRO_WORKERS setting for a fixed seed.
//
// Everything is nil-safe: a nil *Trace, *Metrics, *Counter, or *Gauge
// ignores all operations, so instrumented code never branches on
// "observability configured?" except where the call itself would
// allocate (variadic attrs) — hot loops guard with Trace.Enabled().
package obs

import "time"

// attrKind discriminates the value stored in an Attr.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one key/value annotation on a span or event. Values are
// restricted to types with a canonical text encoding so the JSONL dump
// is reproducible byte for byte.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	f    float64
	b    bool
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindString, str: v} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: int64(v)} }

// Int64 builds a 64-bit integer attribute (bit masks, gate counts).
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// F64 builds a float attribute; encoded with strconv 'g'/-1, the
// shortest representation that round-trips, so encoding is canonical.
func F64(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, kind: kindBool, b: v} }

// Span describes one node of the probe tree. The same value shape is
// delivered at start (Seq, Attrs) and at end (EndSeq, end Attrs,
// Elapsed); Parent is 0 for roots.
type Span struct {
	Seq     uint64
	ID      uint64
	Parent  uint64
	Name    string
	Attrs   []Attr
	EndSeq  uint64
	Elapsed time.Duration // wall-time annotation only; never ordered on
}

// Event is a point annotation inside the current span.
type Event struct {
	Seq   uint64
	Span  uint64
	Name  string
	Attrs []Attr
}

// Observer receives the span/event stream. Implementations are called
// from the serial orchestration path only and need no locking of their
// own; they must not retain the Attrs slices past the call.
type Observer interface {
	OnSpanStart(s Span)
	OnEvent(e Event)
	OnSpanEnd(s Span)
}

// Trace assigns sequence numbers and span identity on top of an
// Observer. The zero-value-nil *Trace is inert.
type Trace struct {
	obs    Observer
	seq    uint64
	nextID uint64
	stack  []uint64
}

// NewTrace wraps an Observer; a nil Observer yields a nil (inert)
// Trace so callers can thread the result unconditionally.
func NewTrace(o Observer) *Trace {
	if o == nil {
		return nil
	}
	return &Trace{obs: o}
}

// Enabled reports whether emission reaches an Observer. Hot loops use
// it to skip attr construction entirely (variadic slices allocate at
// the call site even when the receiver is nil).
func (t *Trace) Enabled() bool { return t != nil }

// top returns the innermost open span ID, or 0.
func (t *Trace) top() uint64 {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// Start opens a span under the innermost open one and returns its
// handle. Nil-safe: on a nil Trace it returns a nil handle whose
// methods are no-ops.
func (t *Trace) Start(name string, attrs ...Attr) *SpanHandle {
	if t == nil {
		return nil
	}
	t.seq++
	t.nextID++
	now := time.Now()
	h := &SpanHandle{t: t, id: t.nextID, parent: t.top(), name: name, began: now}
	t.stack = append(t.stack, h.id)
	t.obs.OnSpanStart(Span{Seq: t.seq, ID: h.id, Parent: h.parent, Name: name, Attrs: attrs})
	return h
}

// Event emits a point event inside the innermost open span.
func (t *Trace) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.seq++
	t.obs.OnEvent(Event{Seq: t.seq, Span: t.top(), Name: name, Attrs: attrs})
}

// SpanHandle is the open end of a span started with Trace.Start.
type SpanHandle struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	began  time.Time
}

// Event emits a point event attributed to this span (rather than the
// innermost open one — useful after nested spans have opened).
func (h *SpanHandle) Event(name string, attrs ...Attr) {
	if h == nil {
		return
	}
	h.t.seq++
	h.t.obs.OnEvent(Event{Seq: h.t.seq, Span: h.id, Name: name, Attrs: attrs})
}

// End closes the span, delivering the end attrs and the wall-time
// annotation. Ends are expected innermost-first; an out-of-order End
// still detaches only its own span.
func (h *SpanHandle) End(attrs ...Attr) {
	if h == nil {
		return
	}
	t := h.t
	t.seq++
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == h.id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	sp := Span{Seq: t.seq, ID: h.id, Parent: h.parent, Name: h.name, Attrs: attrs, EndSeq: t.seq}
	sp.Elapsed = time.Since(h.began)
	t.obs.OnSpanEnd(sp)
}

// Obs bundles the two halves of the subsystem as carried through
// solver options. The zero value is fully inert.
type Obs struct {
	Trace   *Trace
	Metrics *Metrics
}
