package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// The tests in this file cover the background snapshot writer: the write
// overlaps the stages after it, every reader of its state joins it first, a
// failed write costs a restore candidate and nothing else, and no goroutine
// survives the run. They synchronize on events through two seams —
// testWriteGate on the writer goroutine, testPreWait on the engine's — never
// on time, so they hold at any GOMAXPROCS.

// observed is a fresh engine with the app bound, a tracer and registry
// attached, and Interval-1 checkpointing into a temp directory.
func (a ckptApp) observed(t *testing.T, cfg dist.Config) (*Engine, *obs.Tracer, *obs.Registry) {
	t.Helper()
	e := New(DMac, cfg, tBS)
	a.bind(t, e)
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	e.SetObserver(tr, reg)
	if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
		t.Fatal(err)
	}
	return e, tr, reg
}

// holdSnapshot makes the writer hold the snapshot taken after each of stages
// until the engine goroutine waits for it: the run goes on beside a write that
// has not begun, and its first join of that snapshot certainly blocks.
func holdSnapshot(c *checkpointer, stages ...int) {
	release := make(map[int]chan struct{}, len(stages))
	for _, stage := range stages {
		release[stage] = make(chan struct{})
	}
	c.testWriteGate = func(dir string) {
		for stage, ch := range release {
			if strings.HasSuffix(dir, fmt.Sprintf("-stage%d", stage)) {
				<-ch
			}
		}
	}
	c.testPreWait = func(waitingFor int) {
		if ch, ok := release[waitingFor]; ok {
			close(ch)
		}
	}
}

// spanWhere returns the first finished span pred accepts.
func spanWhere(t *testing.T, tr *obs.Tracer, what string, pred func(obs.Span) bool) obs.Span {
	t.Helper()
	spans := tr.Spans()
	i := slices.IndexFunc(spans, pred)
	if i < 0 {
		t.Fatalf("no %s span", what)
	}
	return spans[i]
}

func stageAttr(s obs.Span) int {
	a, _ := s.Attr("stage")
	return int(a.Int)
}

func killAt(stage int) dist.Config {
	cfg := testConfig()
	cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
		{Stage: stage, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
	}}
	return cfg
}

// The snapshot after a stage is held back until the run waits for it, which
// it first does in the recovery of the next stage, killed at its start. The
// restore must wait for that snapshot and use it: the write begins only after
// the kill, no stage is replayed, and the results are those of the fault-free
// run.
func TestSnapshotOverlapsNextStage(t *testing.T) {
	for _, a := range ckptApps {
		stages := a.stagesOf(t)
		_, want := a.run(t, "", CheckpointPolicy{}, 0, nil)
		for pos := 1; pos < len(stages); pos++ {
			gated, kill := stages[pos-1], stages[pos]
			label := fmt.Sprintf("%s kill at stage %d", a.name, kill)
			e, tr, _ := a.observed(t, killAt(kill))
			holdSnapshot(e.ckpt, gated)
			m, err := e.Run(a.prog(), nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if m.StagesReplayed != 0 || m.Retries != 1 {
				t.Errorf("%s: StagesReplayed = %d, Retries = %d, want 0 and 1 (restore from the held snapshot)",
					label, m.StagesReplayed, m.Retries)
			}
			if m.CheckpointWaitSeconds <= 0 {
				t.Errorf("%s: CheckpointWaitSeconds = %v, but the restore had to wait for the writer", label, m.CheckpointWaitSeconds)
			}
			killed := spanWhere(t, tr, "failed attempt", func(s obs.Span) bool {
				_, failed := s.Attr("error")
				return s.Cat == "engine" && s.Name == "attempt" && failed && stageAttr(s) == kill
			})
			write := spanWhere(t, tr, "held write", func(s obs.Span) bool {
				return s.Cat == "ckpt" && s.Name == "write" && stageAttr(s) == gated
			})
			if write.Start < killed.End {
				t.Errorf("%s: the held write began at %d ns, before stage %d was killed at %d ns", label, write.Start, kill, killed.End)
			}
			restore := spanWhere(t, tr, "restore", func(s obs.Span) bool { return s.Cat == "ckpt" && s.Name == "restore" })
			if from, _ := restore.Attr("from_stage"); from.Int != int64(gated) || restore.Start < write.End {
				t.Errorf("%s: restored from stage %d at %d ns, want stage %d once its write ended at %d ns",
					label, from.Int, restore.Start, gated, write.End)
			}
			a.checkSame(t, label, e, want)
		}
	}
}

// A snapshot that cannot be written — its directory's path taken by a regular
// file, or its manifest's by a directory after the grid files went out
// (permissions do not stop root) — is counted, costs the run nothing else,
// and leaves nothing a later manifest points at.
func TestSnapshotWriteFailure(t *testing.T) {
	stages := ckptStages(t)
	// The snapshot after the third stage writes H's new value, which the one
	// after the fourth would reference there.
	failed := stages[2]
	bad := fmt.Sprintf("-stage%d", failed)
	wantW, wantH := wantGNMF(t)
	for _, tc := range []struct {
		name     string
		sabotage func(dir string) error
	}{
		{"directory path is a file", func(dir string) error { return os.WriteFile(dir, []byte("in the way"), 0o644) }},
		{"manifest path is a directory", func(dir string) error { return os.MkdirAll(filepath.Join(dir, "manifest.json.tmp"), 0o755) }},
	} {
		e, _, reg := gnmfApp.observed(t, testConfig())
		var badDir string
		e.ckpt.testWriteGate = func(dir string) {
			if strings.HasSuffix(dir, bad) {
				badDir = filepath.Base(dir)
				if err := tc.sabotage(dir); err != nil {
					t.Error(err)
				}
			}
		}
		if _, err := e.Run(gnmfProgram(0.3), nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reg.Counter("ckpt.write.failures").Value(); got != 1 {
			t.Errorf("%s: ckpt.write.failures = %d, want 1", tc.name, got)
		}
		// One snapshot per stage but the last, less the failed one.
		if got, want := reg.Counter("ckpt.write.count").Value(), int64(len(stages)-2); got != want {
			t.Errorf("%s: ckpt.write.count = %d, want %d", tc.name, got, want)
		}
		for _, man := range readManifests(t, e.ckpt) {
			if man.Stage == failed {
				t.Errorf("%s: the failed snapshot is a restore candidate", tc.name)
			}
			for _, v := range man.Values {
				if strings.Contains(v.File, badDir) {
					t.Errorf("%s: snapshot after stage %d names %s, a file of the failed snapshot", tc.name, man.Stage, v.File)
				}
			}
		}
		checkGNMFResult(t, tc.name, e, wantW, wantH)
	}
}

// A snapshot names session-held values by variable. If that instance no
// longer holds the grid it held when the snapshot was taken, the candidate
// fails verification like a damaged file does and the ladder moves on.
func TestSessionReferenceGone(t *testing.T) {
	stages := ckptStages(t)
	n := len(stages)
	wantW, wantH := wantGNMF(t)
	for _, tc := range []struct {
		replace    string
		wantReplay int
		wantFailed int64
	}{
		// Every snapshot of the iteration names V: all fail, full lineage.
		{"V", n - 1, int64(n - 1)},
		// The newest snapshot no longer names W (only the new W is live).
		{"W", 0, 0},
	} {
		e, _, reg := gnmfApp.observed(t, killAt(stages[n-1]))
		e.ckpt.testPreRestore = func() {
			for s, inst := range e.vars[tc.replace].instances {
				e.vars[tc.replace].instances[s] = dist.NewDistMatrixView(inst.Grid.Clone(), inst.Scheme, inst.Trans())
			}
		}
		m, err := e.Run(gnmfProgram(0.3), nil)
		if err != nil {
			t.Fatalf("%s replaced: %v", tc.replace, err)
		}
		if m.StagesReplayed != tc.wantReplay {
			t.Errorf("%s replaced: StagesReplayed = %d, want %d", tc.replace, m.StagesReplayed, tc.wantReplay)
		}
		if got := reg.Counter("ckpt.verify.failures").Value(); got != tc.wantFailed {
			t.Errorf("%s replaced: ckpt.verify.failures = %d, want %d", tc.replace, got, tc.wantFailed)
		}
		checkGNMFResult(t, tc.replace+" replaced", e, wantW, wantH)
	}
}

// Grids a restore read back are the contents of their files: the snapshots
// after the restore reference them there, so a run that restored puts no more
// bytes on disk than one that never failed.
func TestRestoredGridsAreNotRewritten(t *testing.T) {
	stages := ckptStages(t)
	// H's new value is written after the third stage and still live after the
	// fourth: killed there, the run restores it and snapshots it again.
	kill := stages[3]
	clean, _ := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1}, 0, nil)
	m, e := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1}, kill, nil)
	if m.Retries != 1 || m.StagesReplayed != 0 {
		t.Fatalf("Retries = %d, StagesReplayed = %d, want a restore from the snapshot right before stage %d", m.Retries, m.StagesReplayed, kill)
	}
	if m.CheckpointBytes != clean.CheckpointBytes {
		t.Errorf("CheckpointBytes = %d after a restore, %d without: restored grids were written again", m.CheckpointBytes, clean.CheckpointBytes)
	}
	mans := readManifests(t, e.ckpt)
	if !slices.ContainsFunc(mans[len(mans)-1].Values, func(v ckptValue) bool { return strings.HasPrefix(v.File, "..") }) {
		t.Errorf("the snapshot after stage %d references no file of the snapshot it was restored from", kill)
	}
}

// SetCheckpoint empties the directory of snapshots an earlier process left:
// seq restarts at 0, so the first snapshot would otherwise be written into a
// stale directory of the same name.
func TestSetCheckpointRemovesStaleSnapshots(t *testing.T) {
	dir := t.TempDir()
	_, first := runGNMFCheckpointed(t, dir, CheckpointPolicy{Interval: 1}, 0, nil)
	stale := filepath.Join(first.ckpt.written[0].dir, "stale.dmgr")
	if err := os.WriteFile(stale, []byte("left by an earlier process"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "not-a-snapshot")
	if err := os.WriteFile(keep, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A new engine stands in for the new process: same directory, seq 0.
	_, second := runGNMFCheckpointed(t, dir, CheckpointPolicy{Interval: 1}, 0, nil)
	if second.ckpt.written[0].dir != first.ckpt.written[0].dir {
		t.Fatalf("second process writes %s, first wrote %s: the test needs them to collide", second.ckpt.written[0].dir, first.ckpt.written[0].dir)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a file of the earlier process survives inside the new snapshot (stat: %v)", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("SetCheckpoint removed a file that is not a snapshot: %v", err)
	}
}

// paramProgram is one PageRank iteration whose damping factor is a run
// parameter: run without it, the iteration fails in a late stage.
func paramProgram() *expr.Program {
	p := expr.NewProgram()
	link := p.Var("link", tNodes, tNodes, 0.2)
	rank := p.Var("rank", 1, tNodes, 1)
	p.Assign("rank", p.ScalarParam(matrix.ScalarMul, p.Mul(rank, link), "damping"))
	return p
}

// However a run ends — success, a failed stage, cancellation — the snapshot
// in flight is finished, not abandoned, and no goroutine of the run is left:
// Run never returns with a writer behind it. Each case holds a snapshot until
// the run's last join, the one on execute's way out. The cancellation comes
// from the engine goroutine itself, as it waits for the first snapshot, so
// the boundary that observes it — the one before stage 3 — is not a race.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	// leftBehind returns the stack of a goroutine other than this one that is
	// still inside the engine or its grid I/O once Run has returned, or "".
	// Counting goroutines instead would also count the executor's and the
	// kernels' pool workers, which are past their last wg.Done but not yet
	// descheduled when Run returns. The writer goroutine has signalled its
	// exit by then (closing its done channel is its last act) and may still
	// be returning, so the check polls, yielding, up to a deadline; a
	// goroutine that is really left — blocked on the gate, say — never goes.
	leftBehind := func() string {
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
			var left string
			stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
			for _, g := range stacks[1:] { // the first is the caller's
				g, _, _ = strings.Cut(g, "\ncreated by ") // frames only, not who started it
				if strings.Contains(g, "dmac/internal/engine.") || strings.Contains(g, "dmac/internal/mio.") {
					left = g
				}
			}
			if left == "" || time.Now().After(deadline) {
				return left
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name     string
		prog     *expr.Program
		hold     []int // the snapshots after these stages stay unwritten until waited for, the last until the run returns
		atWait   func(waitingFor int)
		want     func(err error) bool
		wantSnap int64
	}{
		{"success", pageRankProgram(), []int{2}, func(int) {}, func(err error) bool { return err == nil }, 2},
		{"failed stage", paramProgram(), []int{1}, func(int) {},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "missing parameter") }, 1},
		{"cancelled", pageRankProgram(), []int{1, 2}, func(waitingFor int) {
			if waitingFor == 1 {
				cancel()
			}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }, 2},
	} {
		e, _, reg := pageRankApp.observed(t, testConfig())
		holdSnapshot(e.ckpt, tc.hold...)
		release := e.ckpt.testPreWait
		e.ckpt.testPreWait = func(waitingFor int) {
			tc.atWait(waitingFor)
			release(waitingFor)
		}
		_, err := e.RunCtx(ctx, tc.prog, nil)
		if !tc.want(err) {
			t.Errorf("%s: Run returned %v", tc.name, err)
		}
		if e.ckpt.inflight != nil {
			t.Errorf("%s: Run returned with a snapshot in flight", tc.name)
		}
		if g := leftBehind(); g != "" {
			t.Errorf("%s: a goroutine of the run outlives it:\n%s", tc.name, g)
		}
		// Every snapshot that reached the writer is complete on disk.
		if got := reg.Counter("ckpt.write.count").Value(); got != tc.wantSnap {
			t.Errorf("%s: %d snapshots written, want %d", tc.name, got, tc.wantSnap)
		}
		ents, err := os.ReadDir(e.ckpt.dir)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(ents)) != tc.wantSnap {
			t.Errorf("%s: %d snapshot directories, want %d", tc.name, len(ents), tc.wantSnap)
		}
		for _, ent := range ents {
			if _, err := os.Stat(filepath.Join(e.ckpt.dir, ent.Name(), "manifest.json")); err != nil {
				t.Errorf("%s: %s was abandoned: %v", tc.name, ent.Name(), err)
			}
		}
	}
}

// The run's trace and metrics tell the writer's time from the run's: the
// write span hangs under the stage that triggered it, time blocked on the
// writer is a ckpt/wait span and Metrics.CheckpointWaitSeconds, and what the
// session spared the snapshot is counted.
func TestSnapshotObservability(t *testing.T) {
	stages := ckptStages(t)
	e, tr, reg := gnmfApp.observed(t, testConfig())
	// The first snapshot is still unwritten when the second is submitted,
	// which therefore has to wait for it.
	holdSnapshot(e.ckpt, stages[0])
	m, err := e.Run(gnmfProgram(0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[obs.SpanID]obs.Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	writes, waits := 0, 0
	var waited float64
	for _, s := range byID {
		if s.Cat != "ckpt" {
			continue
		}
		switch s.Name {
		case "write":
			writes++
			if parent := byID[s.Parent]; parent.Name != fmt.Sprintf("stage %d", stageAttr(s)) {
				t.Errorf("write span of the snapshot after stage %d hangs under %q", stageAttr(s), parent.Name)
			}
		case "wait":
			waits++
			waited += s.DurationSec()
		}
	}
	if writes != len(stages)-1 {
		t.Errorf("%d write spans, want %d", writes, len(stages)-1)
	}
	if waits == 0 || m.CheckpointWaitSeconds <= 0 {
		t.Errorf("%d wait spans, CheckpointWaitSeconds = %v: the held snapshot made the next one wait", waits, m.CheckpointWaitSeconds)
	}
	if m.CheckpointSeconds <= 0 {
		t.Errorf("CheckpointSeconds = %v, want the writer's busy time", m.CheckpointSeconds)
	}
	refs, refBytes := reg.Counter("ckpt.session_refs").Value(), reg.Counter("ckpt.session_ref.bytes").Value()
	named := int64(0)
	for _, man := range readManifests(t, e.ckpt) {
		for _, v := range man.Values {
			if v.Var != "" {
				named++
			}
		}
	}
	if refs != named || refs == 0 || refBytes <= 0 {
		t.Errorf("ckpt.session_refs = %d (manifests name %d), ckpt.session_ref.bytes = %d", refs, named, refBytes)
	}
}
