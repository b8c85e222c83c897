// Package obs is the runtime's observability layer: a lightweight span
// tracer, a metrics registry, and exporters for both. The engine, the
// distributed runtime and the local scheduler all emit into it, so a single
// run can be attributed operator by operator — which shuffle moved which
// bytes under which strategy, how long each stage computed versus waited on
// the (modelled) network, how often the plan cache hit.
//
// Everything is disabled by default at zero cost: a nil *Tracer and a nil
// *Registry are valid no-op receivers, so instrumented code calls them
// unconditionally and pays only a nil check when observability is off.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Tracer. 0 means "no span" (used for
// roots and for the scope when none is set).
type SpanID int64

// AttrKind discriminates the payload of an Attr.
type AttrKind int

// Attribute payload kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
)

// Attr is one key/value attribute attached to a span. Values are typed so
// exporters can render numbers as numbers (the Chrome trace viewer and the
// byte-accounting tests both need exact integers).
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: AttrString, Str: v} }

// Int64 builds an integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// Float64 builds a float attribute.
func Float64(key string, v float64) Attr { return Attr{Key: key, Kind: AttrFloat, Float: v} }

// Value returns the attribute's payload as an interface value (for JSON
// export).
func (a Attr) Value() any {
	switch a.Kind {
	case AttrInt:
		return a.Int
	case AttrFloat:
		return a.Float
	default:
		return a.Str
	}
}

// Span is one finished span: a named interval with a category, a parent
// link, and attributes. Times are nanoseconds since the tracer's epoch, so
// spans from one tracer share a timeline.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Cat groups spans into exporter lanes: "engine", "op", "comm", "sched".
	Cat  string
	Name string
	// Start and End are nanoseconds since the tracer epoch.
	Start, End int64
	Attrs      []Attr
}

// DurationSec returns the span length in seconds.
func (s *Span) DurationSec() float64 { return float64(s.End-s.Start) / 1e9 }

// Attr returns the attribute with the given key and whether it exists.
func (s *Span) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Tracer records spans. All methods are safe for concurrent use, and all
// methods on a nil *Tracer are no-ops — instrumented code holds a *Tracer
// that is nil until observability is enabled, and calls it unconditionally.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	// clock returns nanoseconds since the epoch; replaced in tests for
	// deterministic golden output.
	clock  func() int64
	nextID atomic.Int64
	// open holds the started spans by value and done the finished ones;
	// Reset empties both and keeps their storage, so a tracer drained after
	// every job (the job service's slots) stops allocating for them.
	open  map[SpanID]Span
	done  []Span
	scope atomic.Int64
}

// NewTracer creates an enabled tracer with a monotonic wall clock.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now(), open: make(map[SpanID]Span)}
	t.clock = func() int64 { return time.Since(t.epoch).Nanoseconds() }
	return t
}

// Enabled reports whether spans are being recorded. Hot paths guard
// attribute construction behind it.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a span under the given parent (0 for a root) and returns its
// ID. On a nil tracer it returns 0.
func (t *Tracer) Start(cat, name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(t.nextID.Add(1))
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	t.open[id] = Span{ID: id, Parent: parent, Cat: cat, Name: name, Start: now, End: now, Attrs: attrs}
	return id
}

// End closes a span, appending any extra attributes (payloads often only
// known at completion: byte counts, task splits). Unknown or already-closed
// IDs are ignored, as is id 0.
func (t *Tracer) End(id SpanID, attrs ...Attr) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	sp.End = t.clock()
	sp.Attrs = append(sp.Attrs, attrs...)
	t.done = append(t.done, sp)
}

// Event records a zero-duration span (a point event carrying a payload,
// e.g. one shuffle's byte count).
func (t *Tracer) Event(cat, name string, parent SpanID, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	id := SpanID(t.nextID.Add(1))
	t.done = append(t.done, Span{ID: id, Parent: parent, Cat: cat, Name: name, Start: now, End: now, Attrs: attrs})
}

// SetScope sets the tracer's current scope span — the parent that
// lower-layer spans (dist comm events, sched batches) attach to when the
// context they run under carries no span of its own (see Parent) — and
// returns the previous scope.
func (t *Tracer) SetScope(id SpanID) SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.scope.Swap(int64(id)))
}

// Scope returns the current scope span (0 if none).
func (t *Tracer) Scope() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.scope.Load())
}

// spanKey is the context key of the span ContextWithSpan installs.
type spanKey struct{}

// ContextWithSpan returns a copy of ctx that names id as the parent of the
// spans started by work done under it (Tracer.Parent). Operators that run
// concurrently each carry their own span this way, where one tracer scope
// could name only one of them.
func ContextWithSpan(ctx context.Context, id SpanID) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// Parent returns the span a lower layer parents its spans under: the one ctx
// carries (ContextWithSpan), or the current scope when it carries none.
func (t *Tracer) Parent(ctx context.Context) SpanID {
	if t == nil {
		return 0
	}
	if id, ok := ctx.Value(spanKey{}).(SpanID); ok {
		return id
	}
	return t.Scope()
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.done))
	copy(out, t.done)
	return out
}

// Len returns the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Reset drops all recorded spans (open spans included) and clears the
// scope. It keeps the storage the spans took for the spans to come.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.done)
	t.done = t.done[:0]
	clear(t.open)
	t.scope.Store(0)
}
