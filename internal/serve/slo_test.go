package serve

import (
	"math"
	"testing"
	"time"

	"dmac/internal/obs"
)

// fixedClock pins the sloTracker's notion of now for deterministic window
// math; advance moves it forward.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time          { return c.t }
func (c *fixedClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(cfg SLOConfig) (*sloTracker, *fixedClock) {
	tr := newSLOTracker(cfg)
	clk := &fixedClock{t: time.Unix(1_000_000, 0)}
	tr.now = clk.now
	return tr, clk
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSLODefaults(t *testing.T) {
	cfg := SLOConfig{}.withDefaults()
	if cfg.Objective != defaultSLOObjective || cfg.LatencySec != defaultSLOLatencySec {
		t.Fatalf("built-in defaults not applied: %+v", cfg)
	}
	cfg = SLOConfig{Objective: 0.9, LatencySec: 2}.withDefaults()
	if cfg.Objective != 0.9 || cfg.LatencySec != 2 {
		t.Fatalf("configured objective not kept: %+v", cfg)
	}
	// Out-of-range objectives fall through to the default.
	cfg = SLOConfig{Objective: 1.5, LatencySec: 3}.withDefaults()
	if cfg.Objective != defaultSLOObjective || cfg.LatencySec != 3 {
		t.Fatalf("out-of-range objective kept: %+v", cfg)
	}
}

func TestSLOBurnRateMath(t *testing.T) {
	// Objective 0.9 → error budget 0.1. 10 jobs, 1 failed, 1 slow →
	// bad rate 0.2 → burn rate 2.0 in both windows.
	tr, _ := newTestTracker(SLOConfig{Objective: 0.9, LatencySec: 1.0})
	for i := 0; i < 8; i++ {
		tr.record("a", 0.5, false)
	}
	tr.record("a", 0.5, true)  // failed
	tr.record("a", 2.0, false) // slow
	snap := tr.snapshot()
	ten, ok := snap.Tenants["a"]
	if !ok {
		t.Fatal("tenant missing from snapshot")
	}
	if ten.Objective != 0.9 || ten.LatencyObjectiveSec != 1.0 {
		t.Fatalf("objectives: %+v", ten)
	}
	for name, w := range ten.Windows {
		if w.Count != 10 || w.Errors != 1 || w.Slow != 1 {
			t.Fatalf("%s window counts: %+v", name, w)
		}
		if !almostEq(w.ErrorRate, 0.1) || !almostEq(w.SlowRate, 0.1) || !almostEq(w.BadRate, 0.2) {
			t.Fatalf("%s window rates: %+v", name, w)
		}
		if !almostEq(w.BurnRate, 2.0) {
			t.Fatalf("%s burn rate = %v, want 2.0", name, w.BurnRate)
		}
		wantMean := (8*0.5 + 0.5 + 2.0) / 10
		if !almostEq(w.MeanLatencySec, wantMean) {
			t.Fatalf("%s mean latency = %v, want %v", name, w.MeanLatencySec, wantMean)
		}
	}
}

// TestSLOFailedNotDoubleCounted: a failed job that is also over the latency
// objective is bad once (as an error), not twice.
func TestSLOFailedNotDoubleCounted(t *testing.T) {
	tr, _ := newTestTracker(SLOConfig{Objective: 0.9, LatencySec: 1.0})
	tr.record("a", 50.0, true)
	w := tr.snapshot().Tenants["a"].Windows["5m"]
	if w.Errors != 1 || w.Slow != 0 || !almostEq(w.BadRate, 1.0) {
		t.Fatalf("window: %+v", w)
	}
}

// TestSLOWindowExpiry: events age out of the 5m window but remain in the 1h
// window, then age out of both.
func TestSLOWindowExpiry(t *testing.T) {
	tr, clk := newTestTracker(SLOConfig{Objective: 0.99, LatencySec: 5})
	tr.record("a", 0.1, true)

	win := func(name string) SLOWindow { return tr.snapshot().Tenants["a"].Windows[name] }
	if w := win("5m"); w.Count != 1 || w.Errors != 1 {
		t.Fatalf("fresh 5m window: %+v", w)
	}

	clk.advance(6 * time.Minute)
	if w := win("5m"); w.Count != 0 {
		t.Fatalf("5m window after 6m: %+v", w)
	}
	if w := win("1h"); w.Count != 1 || w.Errors != 1 || !almostEq(w.BurnRate, 1.0/0.01) {
		t.Fatalf("1h window after 6m: %+v", w)
	}

	clk.advance(time.Hour)
	if w := win("1h"); w.Count != 0 || w.BurnRate != 0 {
		t.Fatalf("1h window after 66m: %+v", w)
	}
}

// TestSLORingReuse: a bucket slot reused a full ring period later must not
// leak the stale epoch's counts into the new window.
func TestSLORingReuse(t *testing.T) {
	tr, clk := newTestTracker(SLOConfig{Objective: 0.99, LatencySec: 5})
	tr.record("a", 0.1, true)
	// Advance exactly one ring period: the new record lands in the same slot.
	clk.advance(sloRingLen * sloBucketSec * time.Second)
	tr.record("a", 0.1, false)
	w := tr.snapshot().Tenants["a"].Windows["1h"]
	if w.Count != 1 || w.Errors != 0 {
		t.Fatalf("stale bucket leaked into reused slot: %+v", w)
	}
}

// TestSLOTenantsIndependent: tenants are tracked in separate windows under
// the one service objective.
func TestSLOTenantsIndependent(t *testing.T) {
	tr, _ := newTestTracker(SLOConfig{Objective: 0.99, LatencySec: 1})
	tr.record("slow", 2, false) // over the 1s objective
	tr.record("fast", 0.5, false)
	snap := tr.snapshot()
	if w := snap.Tenants["slow"].Windows["5m"]; w.Count != 1 || w.Slow != 1 || !almostEq(w.BurnRate, 1.0/0.01) {
		t.Fatalf("slow window: %+v", w)
	}
	if w := snap.Tenants["fast"].Windows["5m"]; w.Count != 1 || w.Slow != 0 || w.BurnRate != 0 {
		t.Fatalf("fast window: %+v", w)
	}
}

// testSpans is one span named name, packed as the recorder keeps it.
func testSpans(name string) []byte {
	return obs.PackSpans([]obs.Span{{Name: name, Cat: "test"}})
}

func TestFlightRecorderRing(t *testing.T) {
	f := newFlightRecorder(2)
	f.record("j1", testSpans("a"))
	f.record("j2", testSpans("b"))
	if got := f.ids(); len(got) != 2 || got[0] != "j1" || got[1] != "j2" {
		t.Fatalf("ids = %v", got)
	}
	// Third job evicts the oldest.
	f.record("j3", testSpans("c"))
	if _, ok := f.get("j1"); ok {
		t.Fatal("j1 not evicted")
	}
	if sp, ok := f.get("j3"); !ok || sp[0].Name != "c" {
		t.Fatalf("j3 = %v %v", sp, ok)
	}
	// Re-recording an existing ID overwrites in place without eviction.
	f.record("j3", testSpans("c2"))
	if sp, _ := f.get("j3"); sp[0].Name != "c2" {
		t.Fatalf("j3 after overwrite = %v", sp)
	}
	if got := f.ids(); len(got) != 2 || got[0] != "j2" {
		t.Fatalf("ids after overwrite = %v", got)
	}
	// Empty span sets are not recorded; nil recorder is a no-op.
	f.record("j4", nil)
	if _, ok := f.get("j4"); ok {
		t.Fatal("empty trace recorded")
	}
	var nilRec *flightRecorder
	nilRec.record("x", testSpans("x"))
	if _, ok := nilRec.get("x"); ok {
		t.Fatal("nil recorder stored a trace")
	}
}
