package engine

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// ckptApp is one program the dependency-aware checkpoint tests run: how to
// build it, how to bind its inputs, and the planner that runs it.
type ckptApp struct {
	name    string
	prog    func() *expr.Program
	bind    func(t *testing.T, e *Engine)
	planner Planner
}

const tNodes = 40 // pagerank graph size

// pageRankProgram builds one PageRank iteration (Code 2) over session
// variables link, rank and D.
func pageRankProgram() *expr.Program {
	p := expr.NewProgram()
	link := p.Var("link", tNodes, tNodes, 0.2)
	rank := p.Var("rank", 1, tNodes, 1)
	d := p.Var("D", 1, tNodes, 1)
	walked := p.Scalar(matrix.ScalarMul, p.Mul(rank, link), 0.85)
	teleport := p.Scalar(matrix.ScalarMul, d, 0.15)
	p.Assign("rank", p.Add(walked, teleport))
	return p
}

func bindPageRank(t *testing.T, e *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	for name, g := range map[string]*matrix.Grid{
		"link": randSparseGrid(rng, tNodes, tNodes, tBS, 0.2),
		"rank": randDenseGrid(rng, 1, tNodes, tBS),
		"D":    randDenseGrid(rng, 1, tNodes, tBS),
	} {
		if err := e.Bind(name, g); err != nil {
			t.Fatal(err)
		}
	}
}

var (
	gnmfApp = ckptApp{"gnmf", func() *expr.Program { return gnmfProgram(0.3) },
		func(t *testing.T, e *Engine) { bindGNMF(t, e) }, DMac}
	pageRankApp = ckptApp{"pagerank", pageRankProgram, bindPageRank, DMac}
	ckptApps    = []ckptApp{gnmfApp, pageRankApp}
)

// randomApp is core.RandomProgram's program for seed, its leaves bound to
// dense grids of block size 4, on planner.
func randomApp(seed int64, planner Planner) ckptApp {
	rng := rand.New(rand.NewSource(seed))
	prog, _ := core.RandomProgram(rng)
	data := denseLeafData(rng, prog, 4)
	return ckptApp{fmt.Sprintf("seed %d on %s", seed, planner), func() *expr.Program { return prog },
		func(t *testing.T, e *Engine) {
			for name, g := range data {
				if err := e.Bind(name, g.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}, planner}
}

// stagesOf lists the distinct stages of the app's plan, ascending.
func (a ckptApp) stagesOf(t *testing.T) []int {
	t.Helper()
	e := New(a.planner, testConfig(), tBS)
	a.bind(t, e)
	plan, err := e.Plan(a.prog())
	if err != nil {
		t.Fatal(err)
	}
	var stages []int
	for _, op := range plan.Ops {
		if !slices.Contains(stages, op.Stage) {
			stages = append(stages, op.Stage)
		}
	}
	slices.Sort(stages)
	return stages
}

// run executes one iteration of the app on a fresh engine, with a boundary
// kill at faultStage (0: none), checkpointing into dir under policy (dir "":
// no checkpointer), and tamper hooked in right before the recovery ladder.
func (a ckptApp) run(t *testing.T, dir string, policy CheckpointPolicy, faultStage int, tamper func(*checkpointer)) (Metrics, *Engine) {
	t.Helper()
	return a.runOn(t, testConfig(), dir, policy, faultStage, tamper)
}

// runOn is run on a cluster of the given configuration.
func (a ckptApp) runOn(t *testing.T, cfg dist.Config, dir string, policy CheckpointPolicy, faultStage int, tamper func(*checkpointer)) (Metrics, *Engine) {
	t.Helper()
	if faultStage > 0 {
		cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{
			{Stage: faultStage, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
		}}
	}
	e := New(a.planner, cfg, tBS)
	a.bind(t, e)
	if dir != "" {
		if err := e.SetCheckpoint(dir, policy); err != nil {
			t.Fatal(err)
		}
		if tamper != nil {
			e.ckpt.testPreRestore = func() { tamper(e.ckpt) }
		}
	}
	m, err := e.Run(a.prog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, e
}

// checkSame holds every variable and scalar the program writes to the
// bits of the fault-free run's.
func (a ckptApp) checkSame(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	prog := a.prog()
	for _, as := range prog.Assignments() {
		if matrix.BitDiff(mustGrid(t, got, as.Name), mustGrid(t, want, as.Name)) != "" {
			t.Errorf("%s: %s is not bit-identical to the fault-free run", label, as.Name)
		}
	}
	for _, so := range prog.ScalarOuts() {
		g, _ := got.Scalar(so.Name)
		w, _ := want.Scalar(so.Name)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: scalar %s = %v, the fault-free run's %v", label, so.Name, g, w)
		}
	}
}

// restoreSeeds are the core.RandomProgram seeds TestDifferentialRestoreEveryStage
// restores on top of the golden programs: every seed below 3,000 whose DMac
// and SystemML-S live sets, on a session that holds its inputs hash-placed,
// leave out the hash-placed instance of an assigned input the session does
// not keep, and ten more.
var restoreSeeds = []int64{
	753, 1019, 1356, 1447, 2033, 2048, 2070, 2099, 2237, 2276, 2504, 2715, 2955,
	0, 1, 2, 3, 4, 5, 6, 2072, 2278, 2506,
}

// TestDifferentialRestoreEveryStage kills a worker at every stage of both
// golden programs under checkpoint intervals 1 and 2, and of random programs
// on DMac and SystemML-S at interval 1. Restore rebuilds the value table from
// the snapshot alone, so a live set that missed a value would fail the run;
// the results must be bit-identical to the fault-free run, and the replay
// counts are the ones the write-everything checkpointer produced: the stages
// strictly between the newest snapshot and the failure.
func TestDifferentialRestoreEveryStage(t *testing.T) {
	type restoreCase struct {
		app       ckptApp
		intervals []int
	}
	var cases []restoreCase
	for _, a := range ckptApps {
		cases = append(cases, restoreCase{a, []int{1, 2}})
	}
	for _, seed := range restoreSeeds {
		for _, planner := range []Planner{DMac, SystemMLS} {
			cases = append(cases, restoreCase{randomApp(seed, planner), []int{1}})
		}
	}
	for _, c := range cases {
		// The runs wait on the file system more than they compute.
		t.Run(c.app.name, func(t *testing.T) {
			t.Parallel()
			a := c.app
			stages := a.stagesOf(t)
			_, want := a.run(t, "", CheckpointPolicy{}, 0, nil)
			for _, interval := range c.intervals {
				for pos, stage := range stages {
					label := fmt.Sprintf("%s interval %d kill at stage %d", a.name, interval, stage)
					m, e := a.run(t, t.TempDir(), CheckpointPolicy{Interval: interval}, stage, nil)
					// pos stages completed before the kill; snapshots sit
					// after every interval-th of them.
					if wantReplay := pos % interval; m.StagesReplayed != wantReplay {
						t.Errorf("%s: StagesReplayed = %d, want %d", label, m.StagesReplayed, wantReplay)
					}
					if m.Retries != 1 {
						t.Errorf("%s: Retries = %d, want 1", label, m.Retries)
					}
					a.checkSame(t, label, e, want)
				}
			}
		})
	}
}

// readManifests parses the manifest of every snapshot the run wrote, oldest
// first.
func readManifests(t *testing.T, c *checkpointer) []ckptManifest {
	t.Helper()
	mans := make([]ckptManifest, len(c.written))
	for i, w := range c.written {
		blob, err := os.ReadFile(filepath.Join(w.dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &mans[i]); err != nil {
			t.Fatal(err)
		}
	}
	return mans
}

// TestSnapshotIsLiveSetWithSharedFiles pins what a snapshot holds (manifest
// v3): exactly the plan's live set after its stage; a value whose grid the
// session holds named by variable and not written; values that alias one grid
// naming one file; a grid already on disk referenced in the earlier
// snapshot's directory instead of rewritten; no snapshot after the last
// stage; the files on disk exactly the files named; and
// Metrics.CheckpointBytes equal to the bytes the run newly put on disk.
func TestSnapshotIsLiveSetWithSharedFiles(t *testing.T) {
	for _, a := range ckptApps {
		dir := t.TempDir()
		m, e := a.run(t, dir, CheckpointPolicy{Interval: 1}, 0, nil)
		// The run cached new instances into the session, so the plan it
		// executed is the one a fresh engine makes.
		fresh := New(DMac, testConfig(), tBS)
		a.bind(t, fresh)
		plan, err := fresh.Plan(a.prog())
		if err != nil {
			t.Fatal(err)
		}

		named := map[string]bool{}      // files any manifest names, relative to dir
		sessionVars := map[string]int{} // values named by session variable
		shared, backRefs := 0, 0
		mans := readManifests(t, e.ckpt)
		for i, man := range mans {
			if man.Version != 3 {
				t.Errorf("%s: manifest version %d, want 3", a.name, man.Version)
			}
			var ids []core.ValueID
			inSnapshot := map[string]int{}
			for _, v := range man.Values {
				ids = append(ids, core.ValueID(v.ID))
				if (v.File == "") == (v.Var == "") {
					t.Errorf("%s: value %d names file %q and variable %q, want exactly one", a.name, v.ID, v.File, v.Var)
				}
				if v.Var != "" {
					if _, bound := fresh.vars[v.Var]; !bound {
						t.Errorf("%s: value %d names %q, not a session variable", a.name, v.ID, v.Var)
					}
					sessionVars[v.Var]++
					continue
				}
				inSnapshot[v.File]++
				if strings.HasPrefix(v.File, "..") {
					backRefs++
				}
				named[filepath.Join(filepath.Base(e.ckpt.written[i].dir), v.File)] = true
			}
			if want := plan.LiveAfter(man.Stage); !slices.Equal(ids, want) {
				t.Errorf("%s: snapshot after stage %d holds values %v, want the live set %v",
					a.name, man.Stage, ids, want)
			}
			for _, n := range inSnapshot {
				if n > 1 {
					shared++
				}
			}
		}
		if stages := a.stagesOf(t); len(mans) != len(stages)-1 || mans[len(mans)-1].Stage != stages[len(stages)-2] {
			t.Errorf("%s: %d snapshots over stages %v, want one after every stage but the last", a.name, len(mans), stages)
		}
		switch a.name {
		case "gnmf":
			if shared == 0 {
				t.Errorf("%s: no two values of a snapshot share a file; H and Hᵀ alias one grid", a.name)
			}
			if backRefs == 0 {
				t.Errorf("%s: no manifest references an earlier snapshot's file", a.name)
			}
			if sessionVars["V"] == 0 {
				t.Errorf("%s: no manifest names V in the session (named: %v)", a.name, sessionVars)
			}
		case "pagerank":
			// The only grid PageRank's snapshots share is the link matrix,
			// which the session holds.
			if sessionVars["link"] == 0 {
				t.Errorf("%s: no manifest names link in the session (named: %v)", a.name, sessionVars)
			}
		}

		var onDisk int64
		gridFiles := 0
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			onDisk += info.Size()
			if filepath.Ext(path) == ".dmgr" {
				gridFiles++
				rel, _ := filepath.Rel(dir, path)
				if !named[rel] {
					t.Errorf("%s: %s is on disk but no manifest names it", a.name, rel)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if gridFiles != len(named) {
			t.Errorf("%s: %d grid files on disk, manifests name %d", a.name, gridFiles, len(named))
		}
		if m.CheckpointBytes != onDisk {
			t.Errorf("%s: CheckpointBytes = %d, but the run put %d bytes on disk", a.name, m.CheckpointBytes, onDisk)
		}
	}
}

// A grid file lives in the directory of the snapshot that first wrote it. If
// it is damaged there, every newer snapshot that references it must fail
// verification too, and the ladder must fall to the newest snapshot that
// predates the file — with bit-identical results.
func TestRecoveryLadderTruncatedReferencedFile(t *testing.T) {
	stages := ckptStages(t)
	n := len(stages)
	wantW, wantH := wantGNMF(t)
	firstBad := -1
	tamper := func(c *checkpointer) {
		mans := readManifests(t, c)
		newest := len(mans) - 1
		// The newest back-reference: the file an older snapshot wrote most
		// recently, so that snapshots older still stay valid.
		ref := ""
		for _, v := range mans[newest].Values {
			if strings.HasPrefix(v.File, "..") && v.File > ref {
				ref = v.File
			}
		}
		if ref == "" {
			t.Fatal("newest snapshot references no earlier file")
		}
		path := filepath.Join(c.written[newest].dir, ref)
		for i, w := range c.written {
			if w.dir == filepath.Dir(path) {
				firstBad = i
			}
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, e := runGNMFCheckpointed(t, t.TempDir(), CheckpointPolicy{Interval: 1}, stages[n-1], tamper)
	if firstBad <= 0 || firstBad >= n-2 {
		t.Fatalf("damaged file belongs to snapshot %d of %d; the test needs valid snapshots before it and referencing ones after", firstBad, n-1)
	}
	// Snapshots firstBad.. all name the file; snapshot firstBad-1 sits after
	// the firstBad-th stage, leaving the stages up to the failing one.
	if want := (n - 1) - firstBad; m.StagesReplayed != want {
		t.Errorf("StagesReplayed = %d, want %d (snapshots %d.. rejected)", m.StagesReplayed, want, firstBad)
	}
	checkGNMFResult(t, "truncated referenced file", e, wantW, wantH)
}

// Each run removes the snapshot directories of the run before it: after two
// runs only the second run's snapshots are on disk.
func TestCheckpointerPrunesEarlierRuns(t *testing.T) {
	dir := t.TempDir()
	e := New(DMac, testConfig(), tBS)
	bindGNMF(t, e)
	if err := e.SetCheckpoint(dir, CheckpointPolicy{Interval: 1}); err != nil {
		t.Fatal(err)
	}
	prog := gnmfProgram(0.3)
	for run := 0; run < 2; run++ {
		if _, err := e.Run(prog, nil); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, ent := range ents {
		got = append(got, ent.Name())
	}
	for _, w := range e.ckpt.written {
		want = append(want, filepath.Base(w.dir))
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("checkpoint dir holds %v, want only the second run's snapshots %v", got, want)
	}
	if first := e.ckpt.written[0].seq; first != len(want) {
		t.Errorf("second run's first snapshot has seq %d, want %d (seq stays monotone across runs)", first, len(want))
	}
}
