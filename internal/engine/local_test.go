package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/obs"
)

// TestLocalRunsOnTheStageRunner: the single-machine reference runs its
// one-stage, communication-free plan on the same stage runner as the
// planners — the run → stage → attempt → op span tree, the per-operator
// metrics, one stage record, cancellation and an explainable plan.
func TestLocalRunsOnTheStageRunner(t *testing.T) {
	e := New(Local, testConfig(), tBS)
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	e.SetObserver(tr, reg)
	bindGNMF(t, e)
	prog := gnmfProgram(0.3)
	m, err := e.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}

	byID := make(map[obs.SpanID]obs.Span)
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	ops := 0
	for _, s := range tr.Spans() {
		if s.Cat != "op" {
			continue
		}
		ops++
		attempt := byID[s.Parent]
		stage := byID[attempt.Parent]
		run := byID[stage.Parent]
		if attempt.Name != "attempt" || !strings.HasPrefix(stage.Name, "stage ") || run.Name != "run" {
			t.Fatalf("op span %q hangs under %q < %q < %q, want attempt < stage < run",
				s.Name, attempt.Name, stage.Name, run.Name)
		}
	}
	if ops == 0 {
		t.Fatal("no op spans")
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["op.compute.seconds"]; !ok || h.Count == 0 {
		t.Error("op.compute.seconds histogram empty")
	}
	if snap.Counters["op.transpose.count"] == 0 {
		t.Error("no transpose ops counted: GNMF reads Wᵀ and Hᵀ")
	}

	if m.Stages != 1 || len(m.PerStage) != 1 {
		t.Fatalf("Stages = %d, PerStage = %+v, want one stage", m.Stages, m.PerStage)
	}
	if rec := m.PerStage[0]; rec.ComputeSeconds != m.ModelSeconds || rec.FLOPs != m.FLOPs || rec.CommBytes != 0 {
		t.Errorf("stage record %+v, want the whole run's %v model seconds and %v FLOPs, no bytes",
			rec, m.ModelSeconds, m.FLOPs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx, prog, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: %v, want context.Canceled", err)
	}

	plan, err := e.Plan(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(); err != nil {
		t.Fatal(err)
	}
	if plan.Stages != 1 || plan.TotalCommBytes() != 0 {
		t.Errorf("plan has %d stages and %d comm bytes, want 1 and 0:\n%s", plan.Stages, plan.TotalCommBytes(), plan)
	}
	for _, v := range plan.Values {
		if v.Scheme != dep.SchemeNone {
			t.Errorf("plan value %s is not hash-placed", v)
		}
	}
}
