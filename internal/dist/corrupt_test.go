package dist

import (
	"context"
	"strings"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/matrix"
	"dmac/internal/workload"
)

func TestFaultPlanValidate(t *testing.T) {
	ok := []FaultPlan{
		{},
		{Rate: 1, CorruptRate: 1, Seed: 7},
		{Events: []FaultEvent{
			{Stage: 1, Worker: 0, Kind: FaultKillBoundary},
			{Stage: 2, Worker: 3, Attempt: 1, Kind: FaultKillTask},
			{Stage: 3, Worker: 1, Kind: FaultDelay, DelaySec: 0.5},
			{Stage: 4, Worker: 2, Kind: FaultCorrupt},
		}},
	}
	for i, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"negative rate", FaultPlan{Rate: -0.1}, "Rate"},
		{"rate above one", FaultPlan{Rate: 1.5}, "Rate"},
		{"negative corrupt rate", FaultPlan{CorruptRate: -1}, "CorruptRate"},
		{"corrupt rate above one", FaultPlan{CorruptRate: 2}, "CorruptRate"},
		{"negative run", FaultPlan{Events: []FaultEvent{{Run: -1}}}, "Run"},
		{"negative stage", FaultPlan{Events: []FaultEvent{{Stage: -1}}}, "Stage"},
		{"negative worker", FaultPlan{Events: []FaultEvent{{Worker: -2}}}, "Worker"},
		{"negative attempt", FaultPlan{Events: []FaultEvent{{Attempt: -1}}}, "Attempt"},
		{"negative delay", FaultPlan{Events: []FaultEvent{{Kind: FaultDelay, DelaySec: -1}}}, "DelaySec"},
		{"unknown kind", FaultPlan{Events: []FaultEvent{{Kind: FaultKind(99)}}}, "kind"},
	}
	for _, tc := range bad {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// An invalid plan must not fail cluster construction but must abort the run
// with the validation error at the first stage.
func TestInvalidPlanSurfacesAtBeginStage(t *testing.T) {
	c := chaosCluster(FaultPlan{Rate: 2})
	err := c.BeginStage(1, 0)
	if err == nil {
		t.Fatal("BeginStage accepted an invalid fault plan")
	}
	if !strings.Contains(err.Error(), "Rate") {
		t.Errorf("error %q does not describe the invalid field", err)
	}
}

// A scripted corruption must be injected at the stage's first block hand-off,
// detected by the checksum verification, charged a re-fetch, and must leave
// the transferred data bit-identical to a fault-free run.
func TestScriptedCorruptionDetected(t *testing.T) {
	g := workload.SparseUniform(11, 40, 40, 10, 0.1)
	pristine := g.Clone()
	plan := FaultPlan{Events: []FaultEvent{
		{Stage: 1, Worker: 1, Kind: FaultCorrupt},
		{Stage: 1, Worker: 2, Kind: FaultCorrupt},
	}}
	c := chaosCluster(plan)
	m := NewDistMatrix(g, dep.SchemeNone)
	if err := c.BeginStage(1, 0); err != nil {
		t.Fatal(err)
	}
	clean := chaosCluster(FaultPlan{})
	if err := clean.BeginStage(1, 0); err != nil {
		t.Fatal(err)
	}
	mc := NewDistMatrix(pristine, dep.SchemeNone)
	if _, err := c.Partition(context.Background(), m, dep.Row, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Partition(context.Background(), mc, dep.Row, 1); err != nil {
		t.Fatal(err)
	}

	s := c.Net().Snapshot()
	if s.CorruptionsInjected != 2 {
		t.Errorf("CorruptionsInjected = %d, want 2", s.CorruptionsInjected)
	}
	if s.CorruptionsDetected != s.CorruptionsInjected {
		t.Errorf("CorruptionsDetected = %d, want %d (every corruption detected)",
			s.CorruptionsDetected, s.CorruptionsInjected)
	}
	cs := clean.Net().Snapshot()
	if s.Bytes <= cs.Bytes {
		t.Errorf("corrupted run moved %d bytes, clean run %d: re-fetches not charged", s.Bytes, cs.Bytes)
	}
	if matrix.BitDiff(g, pristine) != "" {
		t.Error("corruption damaged the stored grid; bit-flips must hit only the in-transit copy")
	}
}

// Corruption events armed for a stage that performs no block hand-off must be
// disarmed at the next BeginStage, never mis-firing or leaking into the
// injected count.
func TestUnconsumedCorruptionDisarmed(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{{Stage: 1, Worker: 0, Kind: FaultCorrupt}}}
	c := chaosCluster(plan)
	if err := c.BeginStage(1, 0); err != nil {
		t.Fatal(err)
	}
	// No transfer in stage 1; stage 2 does transfer.
	if err := c.BeginStage(2, 0); err != nil {
		t.Fatal(err)
	}
	g := workload.DenseRandom(3, 20, 20, 10)
	m := NewDistMatrix(g, dep.SchemeNone)
	if _, err := c.Partition(context.Background(), m, dep.Col, 2); err != nil {
		t.Fatal(err)
	}
	s := c.Net().Snapshot()
	if s.CorruptionsInjected != 0 || s.CorruptionsDetected != 0 {
		t.Errorf("stale corruption fired: injected=%d detected=%d, want 0/0",
			s.CorruptionsInjected, s.CorruptionsDetected)
	}
}

// The random corruption component must be deterministic under a fixed seed,
// independent of the kill decisions, and restricted to first attempts.
func TestCorruptRateDeterministicAndFirstAttemptOnly(t *testing.T) {
	p := FaultPlan{Seed: 9, CorruptRate: 0.5}
	first := p.eventsAt(2, 0, 8)
	again := p.eventsAt(2, 0, 8)
	if len(first) == 0 {
		t.Fatal("50% corruption over 8 workers armed nothing; salt or hash broken")
	}
	if len(first) != len(again) {
		t.Fatalf("event count changed across calls: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("event %d changed across calls: %+v vs %+v", i, first[i], again[i])
		}
		if first[i].Kind != FaultCorrupt {
			t.Fatalf("event %d has kind %s, want corrupt", i, first[i].Kind)
		}
	}
	if got := p.eventsAt(2, 1, 8); len(got) != 0 {
		t.Errorf("retry attempt armed %d corruptions, want 0 (retries re-shuffle clean data)", len(got))
	}
	// Salted independence: with both rates set, the union fires, and the
	// corrupt victims are decided independently of the kill victims.
	both := FaultPlan{Seed: 9, Rate: 0.5, CorruptRate: 0.5}
	var kills, corrupts int
	for _, ev := range both.eventsAt(2, 0, 8) {
		if ev.Kind == FaultCorrupt {
			corrupts++
		} else {
			kills++
		}
	}
	if corrupts != len(first) {
		t.Errorf("adding kills changed the corrupt set: %d vs %d", corrupts, len(first))
	}
	if kills == 0 {
		t.Error("50% kills over 8 workers armed nothing")
	}
}

// Corruption during a broadcast and a CPMM aggregation shuffle must also be
// detected — every hand-off path runs the verification.
func TestCorruptionAcrossHandoffKinds(t *testing.T) {
	a := workload.SparseUniform(21, 30, 30, 10, 0.2)
	b := workload.DenseRandom(22, 30, 30, 10)
	plan := FaultPlan{Events: []FaultEvent{
		{Stage: 1, Worker: 0, Kind: FaultCorrupt},
		{Stage: 2, Worker: 1, Kind: FaultCorrupt},
	}}
	c := chaosCluster(plan)
	if err := c.BeginStage(1, 0); err != nil {
		t.Fatal(err)
	}
	c.Broadcast(context.Background(), NewDistMatrix(a, dep.SchemeNone), 1, nil)
	if err := c.BeginStage(2, 0); err != nil {
		t.Fatal(err)
	}
	ac := NewDistMatrix(a, dep.Col)
	bc := NewDistMatrix(b, dep.Row)
	if _, err := c.Multiply(context.Background(), ac, bc, CPMM, dep.Row, 2); err != nil {
		t.Fatal(err)
	}
	s := c.Net().Snapshot()
	if s.CorruptionsInjected != 2 || s.CorruptionsDetected != 2 {
		t.Errorf("injected=%d detected=%d, want 2/2", s.CorruptionsInjected, s.CorruptionsDetected)
	}
}
