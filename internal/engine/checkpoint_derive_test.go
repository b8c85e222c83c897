package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/obs"
)

// derivedRun runs one iteration of the app on a fresh traced engine, with a
// boundary kill at kill (0: none), snapshots under policy, and pre hooked in
// right before the recovery ladder. It returns the run's metrics, the engine
// and how many derivations the ladder completed.
func (a ckptApp) derivedRun(t *testing.T, cfg dist.Config, policy CheckpointPolicy, kill int, pre func(*Engine)) (Metrics, *Engine, int) {
	t.Helper()
	if kill > 0 {
		cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: kill, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
		}}
	}
	e := New(a.planner, cfg, tBS)
	a.bind(t, e)
	tr := obs.NewTracer()
	e.SetObserver(tr, obs.NewRegistry())
	if err := e.SetCheckpoint(t.TempDir(), policy); err != nil {
		t.Fatal(err)
	}
	if pre != nil {
		e.ckpt.testPreRestore = func() { pre(e) }
	}
	m, err := e.Run(a.prog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	for _, s := range tr.Spans() {
		if _, failed := s.Attr("error"); s.Cat == "ckpt" && s.Name == "derive" && !failed {
			derived++
		}
	}
	return m, e, derived
}

// derivedMembers lists the derived values of a manifest.
func derivedMembers(man ckptManifest) []ckptValue {
	var d []ckptValue
	for _, v := range man.Values {
		if v.Derive != nil {
			d = append(d, v)
		}
	}
	return d
}

// TestDerivedRestoreEveryStage kills a worker at every stage of both golden
// programs and of the random programs TestDifferentialRestoreEveryStage
// restores, on DMac and SystemML-S, under a snapshot after every stage and
// under the cost-model trigger. Every restore must be bit-identical to the
// fault-free run and come from the newest snapshot before the kill — the
// stages the fault-free run snapshotted after are the ones a killed run
// snapshots after before the kill, so the replay count follows from them —
// and the golden programs' restores must recompute derived members.
func TestDerivedRestoreEveryStage(t *testing.T) {
	apps := slices.Clone(ckptApps)
	for _, seed := range restoreSeeds {
		for _, planner := range []Planner{DMac, SystemMLS} {
			apps = append(apps, randomApp(seed, planner))
		}
	}
	for _, a := range apps {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			stages := a.stagesOf(t)
			_, want := a.run(t, "", CheckpointPolicy{}, 0, nil)
			for _, policy := range []CheckpointPolicy{{Interval: 1}, {CostModel: true}} {
				_, clean, _ := a.derivedRun(t, testConfig(), policy, 0, nil)
				var snapped []int // positions of the stages snapshotted after
				for _, w := range clean.ckpt.written {
					snapped = append(snapped, slices.Index(stages, w.stage))
				}
				derived := 0
				for pos, stage := range stages {
					label := fmt.Sprintf("%s %+v kill at stage %d", a.name, policy, stage)
					m, e, n := a.derivedRun(t, testConfig(), policy, stage, nil)
					derived += n
					wantReplay := pos // full lineage
					for _, p := range snapped {
						if p < pos {
							wantReplay = pos - p - 1
						}
					}
					if m.StagesReplayed != wantReplay || m.Retries != 1 {
						t.Errorf("%s: StagesReplayed = %d, Retries = %d, want %d and 1", label, m.StagesReplayed, m.Retries, wantReplay)
					}
					a.checkSame(t, label, e, want)
				}
				if a.planner == DMac && slices.ContainsFunc(ckptApps, func(g ckptApp) bool { return g.name == a.name }) && derived == 0 {
					t.Errorf("%s %+v: no restore derived a value", a.name, policy)
				}
			}
		})
	}
}

// TestDerivedInputSessionGridChanged replaces W's session instances with
// copies right before the ladder runs: the newest snapshot derives Wᵀ·V over
// W's session instance, so it fails verification, as does every snapshot
// naming W, and the ladder falls to the full lineage — with the fault-free
// run's bits.
func TestDerivedInputSessionGridChanged(t *testing.T) {
	stages := ckptStages(t)
	kill := stages[2]
	_, want := gnmfApp.run(t, "", CheckpointPolicy{}, 0, nil)
	var overW bool
	m, e, derived := gnmfApp.derivedRun(t, testConfig(), CheckpointPolicy{Interval: 1}, kill, func(e *Engine) {
		mans := readManifests(t, e.ckpt)
		newest := mans[len(mans)-1]
		for _, d := range derivedMembers(newest) {
			for _, in := range d.Derive {
				overW = overW || slices.ContainsFunc(newest.Values, func(v ckptValue) bool { return v.ID == in.Of && v.Var == "W" })
			}
		}
		for s, inst := range e.vars["W"].instances {
			e.vars["W"].instances[s] = dist.NewDistMatrixView(inst.Grid.Clone(), inst.Scheme, inst.Trans())
		}
	})
	if !overW {
		t.Fatalf("the snapshot after stage %d derives nothing over W's session instance: the test exercises nothing", stages[1])
	}
	if derived != 0 || m.StagesReplayed != 2 {
		t.Errorf("%d derivations, StagesReplayed = %d: want none and the full lineage of 2 stages", derived, m.StagesReplayed)
	}
	gnmfApp.checkSame(t, "W replaced", e, want)
}

// TestDerivationChargesFailedStage runs the same kill twice: once on a cluster
// whose arithmetic prices derivation below the write, once on one so slow that
// every grid is written. Both restore from the snapshot right before the
// kill; the derived run's failed stage books exactly the FLOPs the derived
// members' operators charged in the fault-free run on top, and not one byte
// more — every other record, and every other field, is the same.
func TestDerivationChargesFailedStage(t *testing.T) {
	stages := ckptStages(t)
	kill := stages[2]
	slow := testConfig()
	slow.FlopsPerSecPerThread = 1
	_, clean, _ := gnmfApp.derivedRun(t, testConfig(), CheckpointPolicy{Interval: 1}, 0, nil)
	m, e, derived := gnmfApp.derivedRun(t, testConfig(), CheckpointPolicy{Interval: 1}, kill, nil)
	written, _, none := gnmfApp.derivedRun(t, slow, CheckpointPolicy{Interval: 1}, kill, nil)
	if derived != 1 || none != 0 {
		t.Fatalf("%d and %d derivations, want 1 and 0", derived, none)
	}
	mans := readManifests(t, e.ckpt)
	var flops float64
	for _, v := range derivedMembers(mans[slices.IndexFunc(mans, func(m ckptManifest) bool { return m.Stage == stages[1] })]) {
		flops += clean.st.made[v.ID].FLOPs
	}
	if flops == 0 {
		t.Fatal("the derived members charged no FLOPs")
	}
	for i := range m.PerStage {
		got, want := m.PerStage[i].Snapshot, written.PerStage[i].Snapshot
		if m.PerStage[i].Stage == kill {
			want.FLOPs += flops
		}
		if got != want {
			t.Errorf("stage %d: charged %+v, want %+v", m.PerStage[i].Stage, got, want)
		}
	}
}

// misderived returns manifests that differ from man, a snapshot of a run of
// plan that derives a member, in one derivation each, so that
// loadCheckpoint must reject them: the first derived member's first input
// read transposed the other way, and a second member derived after it
// whose every input reads the first derived member, of another matrix and
// shape than the inputs. A kind the snapshot offers no member for is
// missing.
func misderived(man ckptManifest, plan *core.Plan) map[string]ckptManifest {
	at := producers(plan)
	first := -1
	for i, v := range man.Values {
		if v.Derive != nil && (first < 0 || at[v.ID] < at[man.Values[first].ID]) {
			first = i
		}
	}
	if first < 0 {
		return nil
	}
	out := map[string]ckptManifest{}
	clone := func() ckptManifest {
		c := man
		c.Values = slices.Clone(man.Values)
		for i := range c.Values {
			c.Values[i].Derive = slices.Clone(c.Values[i].Derive)
		}
		return c
	}
	flipped := clone()
	flipped.Values[first].Derive[0].Trans = !flipped.Values[first].Derive[0].Trans
	out["flipped orientation"] = flipped
	d := man.Values[first]
	rows, cols := valueDims(plan, core.ValueID(d.ID))
	for i, v := range man.Values {
		op := at[v.ID]
		if i == first || op < at[d.ID] || !derivableOp(plan.Ops[op]) {
			continue
		}
		if r, c := valueDims(plan, plan.Ops[op].Inputs[0]); r == rows && c == cols {
			continue
		}
		m := clone()
		m.Values[i] = ckptValue{ID: v.ID, Scheme: v.Scheme, Trans: v.Trans, Derive: make([]ckptInput, len(plan.Ops[op].Inputs))}
		for k := range m.Values[i].Derive {
			m.Values[i].Derive[k] = ckptInput{Of: d.ID, Trans: d.Trans}
		}
		out["over a misshapen derived member"] = m
		break
	}
	return out
}

// TestLoadCheckpointRejectsMisderived: a snapshot whose derivation reads an
// input in the wrong orientation, or over a derived member of another
// matrix and shape, fails verification, so no kernel is handed a wrongly
// shaped grid; the ladder falls to the snapshot before it and the results
// are the fault-free run's.
func TestLoadCheckpointRejectsMisderived(t *testing.T) {
	stages := ckptStages(t)
	kill := stages[2]
	_, want := gnmfApp.run(t, "", CheckpointPolicy{}, 0, nil)
	for _, kind := range []string{"flipped orientation", "over a misshapen derived member"} {
		var loadErr error
		m, e, _ := gnmfApp.derivedRun(t, testConfig(), CheckpointPolicy{Interval: 1}, kill, func(e *Engine) {
			w := e.ckpt.written[len(e.ckpt.written)-1]
			mans := readManifests(t, e.ckpt)
			bad, ok := misderived(mans[len(mans)-1], e.st.plan)[kind]
			if !ok {
				t.Fatalf("%s: the snapshot after stage %d offers no such derivation", kind, w.stage)
			}
			blob, err := json.Marshal(bad)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(w.dir, "manifest.json"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			_, loadErr = e.loadCheckpoint(w, &e.st)
		})
		if loadErr == nil {
			t.Errorf("%s: loadCheckpoint accepted the manifest", kind)
		}
		if m.StagesReplayed != 1 {
			t.Errorf("%s: StagesReplayed = %d, want 1 (the snapshot before it)", kind, m.StagesReplayed)
		}
		gnmfApp.checkSame(t, kind, e, want)
	}
}

// FuzzLoadCheckpoint fuzzes the manifest of the newest snapshot of a killed
// GNMF or PageRank run, under the snapshot directory the run wrote, right
// before the ladder reads it; the seeds are the runs' real manifests, some
// deriving members, and misderived ones. loadCheckpoint never panics. The
// derivations of a manifest it accepts run on a copy of the execution state
// and must not panic; each that succeeds gives its plan value's shape. A
// rejected manifest makes the ladder fall to the snapshot before it, and the
// results are the fault-free run's; an accepted one that means something
// else than the real one is put back before the ladder runs, since no check
// can tell a file of the right shape from another.
func FuzzLoadCheckpoint(f *testing.F) {
	apps := []ckptApp{gnmfApp, pageRankApp}
	kills := make([]int, len(apps))
	seeded := false
	for i, a := range apps {
		stages := a.stagesOf(f)
		kills[i] = stages[len(stages)-1]
		_, e := a.run(f, f.TempDir(), CheckpointPolicy{Interval: 1}, 0, nil)
		fresh := New(a.planner, testConfig(), tBS) // plans what the run executed
		a.bind(f, fresh)
		plan, err := fresh.Plan(a.prog())
		if err != nil {
			f.Fatal(err)
		}
		for _, w := range e.ckpt.written {
			blob, err := os.ReadFile(filepath.Join(w.dir, "manifest.json"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), blob)
			var man ckptManifest
			if json.Unmarshal(blob, &man) != nil || len(derivedMembers(man)) == 0 {
				continue
			}
			seeded = true
			for _, bad := range misderived(man, plan) {
				blob, err := json.Marshal(bad)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(uint8(i), blob)
			}
		}
	}
	if !seeded {
		f.Fatal("no seed manifest derives a value")
	}
	f.Fuzz(func(t *testing.T, app uint8, blob []byte) {
		i := int(app) % len(apps)
		a := apps[i]
		var accepted, fellBack bool
		m, e, _ := a.derivedRun(t, testConfig(), CheckpointPolicy{Interval: 1}, kills[i], func(e *Engine) {
			w := e.ckpt.written[len(e.ckpt.written)-1]
			path := filepath.Join(w.dir, "manifest.json")
			real, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := e.loadCheckpoint(w, &e.st)
			if accepted = err == nil; !accepted {
				fellBack = len(e.ckpt.written) > 1
				return
			}
			deriveOnCopy(t, e, r, kills[i])
			var man, want ckptManifest
			if err := json.Unmarshal(blob, &man); err != nil {
				t.Fatalf("accepted a manifest that does not parse: %v", err)
			}
			if json.Unmarshal(real, &want) != nil || !reflect.DeepEqual(man, want) {
				if err := os.WriteFile(path, real, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !accepted && fellBack && m.StagesReplayed != 1 {
			t.Errorf("rejected manifest: StagesReplayed = %d, want 1 (the snapshot before it)", m.StagesReplayed)
		}
		_, want := a.run(t, "", CheckpointPolicy{}, 0, nil)
		a.checkSame(t, "fuzzed manifest", e, want)
	})
}

// deriveOnCopy runs an accepted candidate's derivations as the ladder would
// after a failure in failStage, on a copy of e's execution state so that the
// ladder that follows sees none of it. Every derivation that succeeds must
// give a value of its plan value's shape.
func deriveOnCopy(t *testing.T, e *Engine, r *restoredCkpt, failStage int) {
	t.Helper()
	st := e.st
	st.vals = slices.Clone(st.vals)
	st.made = slices.Clone(st.made)
	st.ledger = slices.Clone(st.ledger)
	if err := e.derive(context.Background(), &st, r, failStage, 0); err != nil {
		return
	}
	for _, d := range r.derived {
		rows, cols := valueDims(st.plan, core.ValueID(d.ID))
		if out := r.vals[d.ID]; out.Rows() != rows || out.Cols() != cols {
			t.Errorf("value %d derived as %dx%d, the plan's is %dx%d", d.ID, out.Rows(), out.Cols(), rows, cols)
		}
	}
}
