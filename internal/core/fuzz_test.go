package core

import (
	"math/rand"
	"testing"

	"dmac/internal/dep"
)

func TestFuzzPlansValidAndCheaperThanBaseline(t *testing.T) {
	// Aggregate comparison of the full planner against its ablations. The
	// heuristics are greedy (strategies are chosen in program order,
	// Section 4.2), so on individual adversarial programs an ablated
	// planner can come out ahead; the invariant is that heuristics help in
	// aggregate, while DMac <= baseline holds per program.
	var fullTotal, ablatedBest int64
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog, vars := RandomProgram(rng)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid program: %v", seed, err)
		}
		cfg := Config{Workers: 1 + rng.Intn(8), Vars: vars}
		plan, err := Generate(prog, cfg)
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		if err := plan.Check(); err != nil {
			t.Fatalf("seed %d: invalid DMac plan: %v\n%s", seed, err, plan)
		}
		base, err := GenerateSystemMLS(prog, cfg)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		if err := base.Check(); err != nil {
			t.Fatalf("seed %d: invalid baseline plan: %v", seed, err)
		}
		// The dependency-aware plan never communicates more than the
		// dependency-oblivious one.
		if plan.TotalCommBytes() > base.TotalCommBytes() {
			t.Errorf("seed %d: DMac comm %d > baseline %d\nDMac:\n%s\nbaseline:\n%s",
				seed, plan.TotalCommBytes(), base.TotalCommBytes(), plan, base)
		}
		// The single-machine reference's plan: one stage, nothing moved,
		// every value hash-placed and one transpose per transposed read.
		local, err := GenerateLocal(prog)
		if err != nil {
			t.Fatalf("seed %d: GenerateLocal: %v", seed, err)
		}
		if err := local.Check(); err != nil {
			t.Fatalf("seed %d: invalid local plan: %v\n%s", seed, err, local)
		}
		if local.Stages > 1 || local.TotalCommBytes() != 0 {
			t.Errorf("seed %d: local plan has %d stages, %d comm bytes\n%s", seed, local.Stages, local.TotalCommBytes(), local)
		}
		transposedReads, transposes := 0, 0
		for _, n := range prog.Nodes() {
			for _, in := range n.Inputs {
				if in.Transposed {
					transposedReads++
				}
			}
		}
		for _, op := range local.Ops {
			if op.Kind == OpTranspose {
				transposes++
			}
		}
		if transposes != transposedReads {
			t.Errorf("seed %d: local plan has %d transposes for %d transposed reads", seed, transposes, transposedReads)
		}
		for _, v := range local.Values {
			if v.Scheme != dep.SchemeNone {
				t.Errorf("seed %d: local plan value %s is not hash-placed", seed, v)
			}
		}
		// Ablations also produce valid plans.
		seedBest := int64(-1)
		for _, abl := range []Config{
			{Workers: cfg.Workers, Vars: vars, DisablePullUp: true},
			{Workers: cfg.Workers, Vars: vars, DisableReassign: true},
			{Workers: cfg.Workers, Vars: vars, DisableCPMM: true},
		} {
			ap, err := Generate(prog, abl)
			if err != nil {
				t.Fatalf("seed %d: ablation Generate: %v", seed, err)
			}
			if err := ap.Check(); err != nil {
				t.Fatalf("seed %d: invalid ablated plan: %v", seed, err)
			}
			if c := ap.TotalCommBytes(); seedBest < 0 || c < seedBest {
				seedBest = c
			}
		}
		fullTotal += plan.TotalCommBytes()
		ablatedBest += seedBest
	}
	// Even against the per-seed best ablation, the full planner should at
	// worst be close in aggregate; against any single fixed ablation it
	// should win outright. Allow 10% slack on the adversarial best-of-3.
	if float64(fullTotal) > 1.1*float64(ablatedBest) {
		t.Errorf("full planner aggregate %d much worse than best-ablation aggregate %d", fullTotal, ablatedBest)
	}
}
