package engine

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
)

// spanEdges is the multiset of (span, parent) kinds of a trace, each kind
// "cat/name" with a stage number folded to "stage N", and "-" for a root.
// Span IDs are not compared: ckpt/write spans take theirs on the writer
// goroutine, so their order varies from run to run.
func spanEdges(spans []obs.Span) map[string]int {
	kind := make(map[obs.SpanID]string, len(spans))
	for _, s := range spans {
		kind[s.ID] = spanKind(s)
	}
	edges := make(map[string]int)
	for _, s := range spans {
		parent := "-"
		if s.Parent != 0 {
			var ok bool
			if parent, ok = kind[s.Parent]; !ok {
				parent = "?"
			}
		}
		edges[spanKind(s)+" < "+parent]++
	}
	return edges
}

func spanKind(s obs.Span) string {
	name := s.Name
	if s.Cat == "engine" && strings.HasPrefix(name, "stage ") {
		name = "stage N"
	}
	return s.Cat + "/" + name
}

// edgeDiff lists the edges whose counts differ between got and want.
func edgeDiff(got, want map[string]int) string {
	var b strings.Builder
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			fmt.Fprintf(&b, "\n\t%q: %d, want %d", k, got[k], want[k])
		}
	}
	return b.String()
}

// holdEverySnapshot makes the writer hold every snapshot until the engine
// goroutine waits for it, so every join of a snapshot in flight blocks and
// traces one ckpt/wait span, whatever the scheduling. onWait, if set, runs on
// the engine goroutine before each release.
func holdEverySnapshot(c *checkpointer, onWait func()) {
	gate := make(chan struct{})
	c.testWriteGate = func(string) { <-gate }
	c.testPreWait = func(int) {
		if onWait != nil {
			onWait()
		}
		gate <- struct{}{}
	}
}

// TestSpanTree pins the shape of a traced session's span tree: two GNMF runs
// with the rewriter on, a snapshot after every stage, a task kill in stage 2
// and a boundary kill in stage 3 of the first run. Every span kind the engine
// emits appears — run, stage, attempt, recover, the checkpoint ladder's
// verify/restore/wait/write, operators, comm events, task batches and the
// rewrite pass with its decisions — each under the parent it has always had.
func TestSpanTree(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: 2, Worker: 1, Attempt: 0, Kind: dist.FaultKillTask},
		{Stage: 3, Worker: 2, Attempt: 0, Kind: dist.FaultKillBoundary},
	}}
	e := New(DMac, cfg, tBS)
	tr := obs.NewTracer()
	e.SetObserver(tr, obs.NewRegistry())
	e.SetRewriter(rewrite.New())
	bindGNMF(t, e)
	if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
		t.Fatal(err)
	}
	holdEverySnapshot(e.ckpt, nil)
	prog := gnmfProgram(0.3)
	for run := 1; run <= 2; run++ {
		if _, err := e.Run(prog, nil); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	spans := tr.Spans()
	want := map[string]int{
		"ckpt/restore < engine/recover":              2,
		"ckpt/verify < engine/recover":               2,
		"ckpt/wait < engine/recover":                 2,
		"ckpt/wait < engine/run":                     4,
		"ckpt/write < engine/stage N":                6,
		"comm/broadcast < op/broadcast":              5,
		"comm/cpmm-shuffle < op/compute m0 %*% m6ᵀ":  2,
		"comm/cpmm-shuffle < op/compute m6 %*% m6ᵀ":  2,
		"comm/partition < op/partition":              2,
		"comm/recovery < engine/recover":             2,
		"engine/attempt < engine/stage N":            10,
		"engine/recover < engine/stage N":            2,
		"engine/rewrite < -":                         1,
		"engine/run < -":                             2,
		"engine/stage N < engine/run":                8,
		"op/broadcast < engine/attempt":              5,
		"op/compute (m1 * m7) / m9 < engine/attempt": 2,
		"op/compute (m2 * m3) / m5 < engine/attempt": 2,
		"op/compute m0 %*% m6ᵀ < engine/attempt":     2,
		"op/compute m1 %*% m8 < engine/attempt":      2,
		"op/compute m1ᵀ %*% m0 < engine/attempt":     2,
		"op/compute m1ᵀ %*% m1 < engine/attempt":     2,
		"op/compute m4 %*% m2 < engine/attempt":      2,
		"op/compute m6 %*% m6ᵀ < engine/attempt":     2,
		"op/extract < engine/attempt":                1,
		"op/partition < engine/attempt":              3,
		"op/transpose < engine/attempt":              7,
		"op/var var(H) < engine/attempt":             2,
		"op/var var(V) < engine/attempt":             2,
		"op/var var(W) < engine/attempt":             2,
		"rewrite/fuse-cellwise < engine/rewrite":     2,
		"rewrite/sparsity-refine < engine/rewrite":   4,
		"sched/batch < op/compute (m1 * m7) / m9":    2,
		"sched/batch < op/compute (m2 * m3) / m5":    2,
		"sched/batch < op/compute m0 %*% m6ᵀ":        2,
		"sched/batch < op/compute m1 %*% m8":         2,
		"sched/batch < op/compute m1ᵀ %*% m0":        2,
		"sched/batch < op/compute m1ᵀ %*% m1":        2,
		"sched/batch < op/compute m4 %*% m2":         2,
		"sched/batch < op/compute m6 %*% m6ᵀ":        2,
	}
	if got := spanEdges(spans); !maps.Equal(got, want) {
		t.Errorf("span tree differs:%s", edgeDiff(got, want))
	}
	if len(spans) != 112 {
		t.Errorf("%d spans, want 112", len(spans))
	}
}

// TestSharedTracerSessions runs a second session on the tracer of a first
// while the first waits on its snapshot writer: each session's spans form
// their own tree, the second's run span a root as when it runs alone.
func TestSharedTracerSessions(t *testing.T) {
	tr := obs.NewTracer()
	solo := func() map[string]int {
		e := New(DMac, testConfig(), tBS)
		own := obs.NewTracer()
		e.SetObserver(own, nil)
		bindGNMF(t, e)
		if _, err := e.Run(gnmfProgram(0.3), nil); err != nil {
			t.Fatal(err)
		}
		return spanEdges(own.Spans())
	}()

	a := New(DMac, testConfig(), tBS)
	a.SetObserver(tr, nil)
	bindGNMF(t, a)
	if err := a.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
		t.Fatal(err)
	}
	b := New(DMac, testConfig(), tBS)
	b.SetObserver(tr, nil)
	bindGNMF(t, b)
	var once sync.Once
	var before int
	holdEverySnapshot(a.ckpt, func() {
		once.Do(func() {
			before = tr.Len()
			if _, err := b.Run(gnmfProgram(0.3), nil); err != nil {
				t.Error(err)
			}
		})
	})
	if _, err := a.Run(gnmfProgram(0.3), nil); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	runs := 0
	for _, s := range spans {
		if s.Cat == "engine" && s.Name == "run" {
			runs++
			if s.Parent != 0 {
				t.Errorf("run span %d has parent %d", s.ID, s.Parent)
			}
		}
	}
	if runs != 2 {
		t.Fatalf("%d run spans, want 2", runs)
	}
	// The second session ran start to end inside the first one's wait, so
	// the spans it finished are one contiguous stretch of the trace.
	var second []obs.Span
	for _, s := range spans[before:] {
		second = append(second, s)
		if s.Cat == "engine" && s.Name == "run" {
			break
		}
	}
	if got := spanEdges(second); !maps.Equal(got, solo) {
		t.Errorf("second session's span tree differs from a solo run's:%s", edgeDiff(got, solo))
	}
}
