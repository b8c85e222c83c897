package bench

import (
	"bytes"
	"strings"
	"testing"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/obs"
	"dmac/internal/sched"
	"dmac/internal/workload"
)

// tracedEngine builds a DMac engine on 4 workers with a tracer and a metrics
// registry attached.
func tracedEngine(bs int) (*engine.Engine, *obs.Tracer) {
	e := newEngine(engine.DMac, 4, bs)
	tr := obs.NewTracer()
	e.SetObserver(tr, obs.NewRegistry())
	return e, tr
}

// tracedPageRank runs PageRank on soc-pokec at 1/40 scale, traced, and
// returns the spans and the network totals the run charged.
func tracedPageRank(t *testing.T, iters int) ([]obs.Span, dist.Snapshot) {
	t.Helper()
	spec, _ := workload.GraphByName("soc-pokec")
	nodes := spec.ScaledNodes(40)
	bs := sched.ChooseBlockSize(nodes, nodes, DefaultLocalParallelism, 4)
	e, tr := tracedEngine(bs)
	if _, err := apps.PageRank(e, spec.Generate(40, bs).Adjacency, iters, 7); err != nil {
		t.Fatal(err)
	}
	return tr.Spans(), e.Cluster().Net().Snapshot()
}

// TestTraceBytesMatchNetStats is the observability layer's accounting
// invariant: the byte sums of the trace's "comm" spans equal the bytes the
// instrumented network charged — exactly, over a full PageRank run. Every
// NetStats charge site must emit a matching comm span for this to hold.
func TestTraceBytesMatchNetStats(t *testing.T) {
	spans, net := tracedPageRank(t, 3)
	var spanBytes int64
	var commEvents int
	for _, s := range spans {
		if s.Cat != "comm" {
			continue
		}
		commEvents++
		a, ok := s.Attr("bytes")
		if !ok {
			t.Fatalf("comm span %q has no bytes attribute", s.Name)
		}
		spanBytes += a.Int
	}
	if spanBytes != net.CommBytes {
		t.Fatalf("trace comm bytes = %d, NetStats.CommBytes = %d (every charge site must trace)",
			spanBytes, net.CommBytes)
	}
	if commEvents != net.CommEvents {
		t.Fatalf("trace comm events = %d, NetStats.CommEvents = %d", commEvents, net.CommEvents)
	}
	// The same totals must survive the Chrome trace JSON round trip.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace JSON holds no events")
	}
	sum := obs.Summarize(obs.EventsToSpans(events))
	if sum.TotalBytes != net.CommBytes {
		t.Fatalf("round-tripped trace bytes = %d, NetStats.CommBytes = %d", sum.TotalBytes, net.CommBytes)
	}
}

// TestGNMFCommEventCounts pins the broadcast/shuffle event counts of a fixed
// GNMF plan (3 iterations at 1/100 Netflix scale on 4 workers). A planner or
// runtime change that alters how dependencies are satisfied shows up here as
// a count shift, which is the point: update deliberately, with the change
// that moved them.
func TestGNMFCommEventCounts(t *testing.T) {
	movies, users := workload.Netflix.Movies/100, workload.Netflix.Users/100
	bs := sched.ChooseBlockSize(movies, users, DefaultLocalParallelism, 4)
	e, _ := tracedEngine(bs)
	_, _, v := workload.Netflix.Scaled(100, bs)
	if _, err := apps.GNMF(e, v, 8, 3, 42); err != nil {
		t.Fatal(err)
	}
	net := e.Cluster().Net().Snapshot()
	const wantBroadcasts, wantShuffles = 6, 11
	if net.Broadcasts != wantBroadcasts {
		t.Errorf("Broadcasts = %d, want %d", net.Broadcasts, wantBroadcasts)
	}
	if net.Shuffles != wantShuffles {
		t.Errorf("Shuffles = %d, want %d", net.Shuffles, wantShuffles)
	}
	if got := net.Broadcasts + net.Shuffles; got != net.CommEvents {
		t.Errorf("Broadcasts+Shuffles = %d, CommEvents = %d (must partition exactly)",
			got, net.CommEvents)
	}
}

// TestTracedRunTimeline checks the human-readable report names a dominant
// communication pattern and renders one row per stage.
func TestTracedRunTimeline(t *testing.T) {
	spans, _ := tracedPageRank(t, 2)
	var buf strings.Builder
	obs.WriteTimeline(&buf, spans)
	out := buf.String()
	for _, want := range []string{"dominant communication:", "stage", "comm kind"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}
