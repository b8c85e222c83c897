package obs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// packStrings mixes empty, ASCII, non-ASCII and long strings.
var packStrings = []string{"", "op", "engine", "compute m0ᵀ %*% m0", "dep_in0", "ζ", "\x00\xff", string(make([]byte, 300))}

// packFloats are payloads a float attribute must keep bit for bit.
var packFloats = []float64{0, math.Copysign(0, -1), 1.5, -2.25e-300, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, math.MaxFloat64}

// packInts cross every varint length and both ends of int64.
var packInts = []int64{0, 1, -1, 63, -64, 64, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64}

// randomSpans draws n spans with every attribute kind (an unknown kind
// included, which carries a string as AttrString does), zero-length events
// and IDs, parents and times over all of int64.
func randomSpans(rng *rand.Rand, n int) []Span {
	pick := func(xs []int64) int64 {
		if rng.Intn(3) == 0 {
			return xs[rng.Intn(len(xs))]
		}
		return rng.Int63n(1<<40) - 1<<39
	}
	str := func() string { return packStrings[rng.Intn(len(packStrings))] }
	spans := make([]Span, n)
	for i := range spans {
		s := &spans[i]
		s.ID, s.Parent = SpanID(pick(packInts)), SpanID(pick(packInts))
		s.Cat, s.Name = str(), str()
		s.Start = pick(packInts)
		s.End = s.Start
		if rng.Intn(3) > 0 { // else a zero-length event
			s.End = pick(packInts)
		}
		for k := rng.Intn(5); k > 0; k-- {
			switch rng.Intn(4) {
			case 0:
				s.Attrs = append(s.Attrs, String(str(), str()))
			case 1:
				s.Attrs = append(s.Attrs, Int64(str(), pick(packInts)))
			case 2:
				s.Attrs = append(s.Attrs, Float64(str(), packFloats[rng.Intn(len(packFloats))]))
			default:
				s.Attrs = append(s.Attrs, Attr{Key: str(), Kind: AttrKind(3 + rng.Intn(5)), Str: str()})
			}
		}
	}
	return spans
}

// spanDiff compares spans field for field, floats by their bits; "" when
// equal.
func spanDiff(got, want []Span) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Cat != w.Cat || g.Name != w.Name ||
			g.Start != w.Start || g.End != w.End || len(g.Attrs) != len(w.Attrs) || (g.Attrs == nil) != (w.Attrs == nil) {
			return fmt.Sprintf("span %d: %+v, want %+v", i, g, w)
		}
		for k := range w.Attrs {
			ga, wa := g.Attrs[k], w.Attrs[k]
			if ga.Key != wa.Key || ga.Kind != wa.Kind || ga.Str != wa.Str || ga.Int != wa.Int ||
				math.Float64bits(ga.Float) != math.Float64bits(wa.Float) {
				return fmt.Sprintf("span %d attr %d: %+v, want %+v", i, k, ga, wa)
			}
		}
	}
	return ""
}

// TestPackedSpansRoundTrip: random spans read back from their packed form
// bit for bit, and the form is exactly as long as PackSpans sized it.
func TestPackedSpansRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		spans := randomSpans(rng, rng.Intn(40))
		packed := PackSpans(spans)
		if len(packed) != cap(packed) {
			t.Fatalf("trial %d: packed %d bytes into a buffer of %d", trial, len(packed), cap(packed))
		}
		got, err := UnpackSpans(packed)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := spanDiff(got, spans); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestPackedTracerSpans: a tracer's packed spans are its Spans, in
// completion order, with empty attribute lists nil on both sides.
func TestPackedTracerSpans(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(fakeClock(7))
	run := tr.Start("engine", "run", 0)
	op := tr.Start("op", "compute m0ᵀ %*% m0", run, Int64("stage", 1), String("dep_in0", "transpose-partition"))
	tr.Event("comm", "broadcast", op)
	tr.End(op, Float64("seconds", math.Copysign(0, -1)))
	tr.End(run, Float64("nan", math.NaN()))
	got, err := UnpackSpans(tr.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if d := spanDiff(got, tr.Spans()); d != "" {
		t.Fatal(d)
	}
	if packed := (*Tracer)(nil).Pack(); packed != nil {
		t.Fatalf("nil tracer packed %d bytes", len(packed))
	}
	if spans, err := UnpackSpans(nil); spans != nil || err != nil {
		t.Fatalf("empty trace unpacked to %v, %v", spans, err)
	}
}

// TestUnpackCorruptSpans: every strict prefix of a packed trace, and one
// with a byte past its end, is refused without a panic.
func TestUnpackCorruptSpans(t *testing.T) {
	packed := PackSpans(randomSpans(rand.New(rand.NewSource(3)), 12))
	for n := 1; n < len(packed); n++ {
		if _, err := UnpackSpans(packed[:n]); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("prefix of %d of %d bytes: err %v", n, len(packed), err)
		}
	}
	if _, err := UnpackSpans(append(packed[:len(packed):len(packed)], 0)); !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("trailing byte: err %v", err)
	}
	if _, err := UnpackSpans([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0}); !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("huge span count: err %v", err)
	}
}

// TestPackAllocatesOnce: packing a tracer's spans is one allocation whether
// it holds ten spans or a thousand.
func TestPackAllocatesOnce(t *testing.T) {
	for _, n := range []int{10, 1000} {
		tr := NewTracer()
		for i := 0; i < n; i++ {
			id := tr.Start("op", "compute m1 %*% m0", 0, Int64("stage", 1), String("kind", "compute"))
			tr.End(id, Float64("seconds", 0.25))
		}
		if a := testing.AllocsPerRun(20, func() { _ = tr.Pack() }); a != 1 {
			t.Errorf("packing %d spans: %v allocations, want 1", n, a)
		}
	}
}

// TestResetKeepsStorage: a tracer reset after every job records the next
// job's spans without allocating for its span storage.
func TestResetKeepsStorage(t *testing.T) {
	tr := NewTracer()
	attrs := []Attr{Int64("stage", 1)}
	job := func() {
		for i := 0; i < 50; i++ {
			tr.End(tr.Start("op", "compute", 0, attrs...))
		}
		tr.Reset()
	}
	job()
	if a := testing.AllocsPerRun(20, job); a != 0 {
		t.Errorf("a reset tracer allocates %v times a job", a)
	}
}
