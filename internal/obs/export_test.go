package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// SetClock replaces the tracer's clock with fn, which must return
// nanoseconds since the tracer's epoch, so golden traces have fixed
// timestamps.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = fn
}

// goldenSpans builds a small fixed trace under a deterministic clock: a run
// span holding one stage, one operator with a comm event, and a sched batch.
func goldenSpans() []Span {
	tr := NewTracer()
	tr.SetClock(fakeClock(500_000)) // 0.5 ms per clock reading

	run := tr.Start("engine", "run", 0, String("planner", "DMac"), Int64("stages", 1))
	stage := tr.Start("engine", "stage 1", run, Int64("stage", 1), Int64("ops", 1))
	op := tr.Start("op", "compute W %*% H", stage, Int64("stage", 1), String("strategy", "RMM1"))
	tr.Event("comm", "broadcast", op, Int64("stage", 1), Int64("bytes", 4096), String("from_scheme", "Row"))
	batch := tr.Start("sched", "batch", op, Int64("tasks", 8), Int64("workers", 4))
	tr.End(batch, Float64("compute_s", 0.002))
	tr.End(op)
	tr.End(stage)
	tr.End(run, Int64("comm_bytes", 4096))
	return tr.Spans()
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace output differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestWriteMetricsJSONGolden pins the -metrics-out document byte for byte:
// its keys (counters, counter_vecs, histogram_vecs, ...) are what scripts and
// the serve smoke read.
func TestWriteMetricsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run MetricsJSONGolden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics JSON differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := goldenSpans()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	events, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(spans) {
		t.Fatalf("round trip lost events: %d != %d", len(events), len(spans))
	}
	back := EventsToSpans(events)
	byID := map[SpanID]Span{}
	for _, s := range back {
		byID[s.ID] = s
	}
	for _, orig := range spans {
		got, ok := byID[orig.ID]
		if !ok {
			t.Fatalf("span %d lost in round trip", orig.ID)
		}
		if got.Name != orig.Name || got.Cat != orig.Cat || got.Parent != orig.Parent {
			t.Fatalf("span %d mutated: got %+v, want %+v", orig.ID, got, orig)
		}
		for _, a := range orig.Attrs {
			if a.Kind != AttrInt {
				continue
			}
			ra, ok := got.Attr(a.Key)
			if !ok || ra.Int != a.Int {
				t.Fatalf("span %d attr %q: got %+v, want %d (integers must survive exactly)",
					orig.ID, a.Key, ra, a.Int)
			}
		}
	}
}

func TestReadChromeTraceBareArray(t *testing.T) {
	in := `[{"name":"x","cat":"op","ph":"X","ts":1,"dur":2,"pid":1,"tid":2,"args":{"span_id":1}}]`
	events, err := ReadChromeTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "x" {
		t.Fatalf("events = %+v", events)
	}
}

func TestReadChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSummarize(t *testing.T) {
	spans := goldenSpans()
	sum := Summarize(spans)
	if sum.TotalBytes != 4096 {
		t.Fatalf("TotalBytes = %d, want 4096", sum.TotalBytes)
	}
	if len(sum.Stages) != 1 || sum.Stages[0].Stage != 1 {
		t.Fatalf("stages = %+v", sum.Stages)
	}
	st := sum.Stages[0]
	if st.Ops != 1 || st.CommEvents != 1 || st.CommBytes != 4096 {
		t.Fatalf("stage summary = %+v", st)
	}
	d := sum.DominantComm()
	if d.Name != "broadcast" || d.Events != 1 || d.Bytes != 4096 {
		t.Fatalf("DominantComm = %+v", d)
	}
	var buf strings.Builder
	WriteTimeline(&buf, spans)
	out := buf.String()
	for _, want := range []string{"dominant communication: broadcast", "stage", "comm kind"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline output missing %q:\n%s", want, out)
		}
	}
}
