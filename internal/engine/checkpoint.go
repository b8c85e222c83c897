package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dmac/internal/core"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/matrix"
	"dmac/internal/mio"
	"dmac/internal/obs"
)

// CheckpointPolicy decides when the engine snapshots the live values of a run
// (core.Plan.LiveAfter: what a restore can still read) to disk. Both triggers
// may be combined; a policy with neither never writes (but SetCheckpoint
// still enables checkpoint-aware recovery, which then degrades to full
// lineage replay).
type CheckpointPolicy struct {
	// Interval checkpoints after every Interval-th completed stage. 0
	// disables the fixed-interval trigger.
	Interval int
	// CostModel checkpoints after a stage once the modelled cost of
	// recomputing the stages since the last checkpoint (their attributed
	// FLOPs and communication, priced by the cluster's cost model) exceeds
	// the modelled cost of writing the snapshot — the bytes of the live
	// grids no earlier snapshot of the run already holds. This is the
	// dependency-cost analogue of the classic checkpoint-interval rule: pay
	// the write when a failure would cost more than the write does.
	CostModel bool
	// WriteBytesPerSec is the modelled checkpoint write bandwidth the cost
	// model prices the snapshot against. Defaults to 200 MB/s.
	WriteBytesPerSec float64
}

// Enabled reports whether the policy ever triggers a write.
func (p CheckpointPolicy) Enabled() bool { return p.Interval > 0 || p.CostModel }

func (p CheckpointPolicy) withDefaults() CheckpointPolicy {
	if p.WriteBytesPerSec <= 0 {
		p.WriteBytesPerSec = 200e6
	}
	return p
}

// Validate rejects policies that would behave silently oddly.
func (p CheckpointPolicy) Validate() error {
	if p.Interval < 0 {
		return fmt.Errorf("engine: checkpoint Interval %d is negative", p.Interval)
	}
	if p.WriteBytesPerSec < 0 {
		return fmt.Errorf("engine: checkpoint WriteBytesPerSec %v is negative", p.WriteBytesPerSec)
	}
	return nil
}

// manifestVersion versions the checkpoint manifest schema. Version 2 lets a
// value's File name a grid file of an earlier snapshot of the same run and
// lets several values name one file.
const manifestVersion = 2

// ckptManifest is the manifest of one checkpoint: which values (and driver
// scalars) the snapshot holds, identified by plan value ID, and the stage the
// snapshot was taken after. It is written last, atomically (temp file +
// rename), so a crash mid-checkpoint leaves a directory without a readable
// manifest — invalid by construction, skipped by the recovery ladder.
type ckptManifest struct {
	Version int                `json:"version"`
	Seq     int                `json:"seq"`
	Stage   int                `json:"stage"`
	PlanSig string             `json:"plan_sig"`
	Values  []ckptValue        `json:"values"`
	Scalars map[string]float64 `json:"scalars,omitempty"`
}

// ckptValue locates one snapshotted plan value. File is relative to the
// snapshot's directory: a bare name for a grid this snapshot wrote, a
// "../ckpt-…/" path for one an earlier snapshot of the run wrote. Values that
// share a grid (partition, broadcast, extract and lazy-transpose outputs
// alias their operand's blocks) name the same file. The grid file carries its
// own per-block CRC32C (mio version 2); Scheme and Trans restore the value's
// placement and lazy-transpose state.
type ckptValue struct {
	ID     int    `json:"id"`
	File   string `json:"file"`
	Scheme int    `json:"scheme"`
	Trans  bool   `json:"trans,omitempty"`
}

// writtenCkpt is the in-memory record of a checkpoint written by the current
// run — the candidates of the recovery ladder. Validity is never assumed:
// restore re-reads and re-verifies everything from disk.
type writtenCkpt struct {
	seq   int
	stage int
	dir   string
}

// checkpointer owns the checkpoint directory of an engine: the write policy,
// the sequence counter (monotone across runs, so directories never collide),
// and the per-run state the recovery ladder and the run metrics read.
type checkpointer struct {
	dir    string
	policy CheckpointPolicy
	seq    int

	// Per-run state, reset by beginRun.
	written []writtenCkpt
	// dirs lists every snapshot directory the run created, manifest or not,
	// for the next run to remove.
	dirs []string
	// files maps each grid a manifest of this run names to its file, relative
	// to dir. Materialized grids are immutable, so identity is content: a
	// grid is written once per run and later manifests point back at it.
	files       map[*matrix.Grid]string
	sinceLast   int
	pendingCost float64
	bytes       int64
	seconds     float64
	replayed    int

	// testPreRestore, when set (tests only), runs right before the recovery
	// ladder scans the checkpoints — the seam the crash-mid-checkpoint tests
	// use to damage on-disk state between write and restore.
	testPreRestore func()
}

// beginRun resets the per-run state and removes the previous run's snapshot
// directories: they describe a different execution's values, so no later run
// can restore from them, and left in place they grow the directory without
// bound.
func (c *checkpointer) beginRun() {
	if c == nil {
		return
	}
	for _, dir := range c.dirs {
		// A directory that cannot be removed only wastes space: seq is
		// monotone, so no later snapshot reuses its name.
		_ = os.RemoveAll(dir)
	}
	c.dirs = c.dirs[:0]
	c.written = c.written[:0]
	c.files = make(map[*matrix.Grid]string)
	c.sinceLast, c.pendingCost = 0, 0
	c.bytes, c.seconds, c.replayed = 0, 0, 0
}

// noteStage records one completed stage and its modelled cost — what a
// failure right now would have to recompute.
func (c *checkpointer) noteStage(modelCost float64) {
	c.sinceLast++
	c.pendingCost += modelCost
}

// shouldCheckpoint applies the policy to a snapshot of the given live values.
func (c *checkpointer) shouldCheckpoint(live []liveValue) bool {
	if c.policy.Interval > 0 && c.sinceLast >= c.policy.Interval {
		return true
	}
	return c.policy.CostModel &&
		c.pendingCost > float64(c.unwrittenBytes(live))/c.policy.WriteBytesPerSec
}

// unwrittenBytes prices the snapshot the checkpointer is deciding about: the
// footprint of the live grids no manifest of this run names yet, each shared
// grid counted once.
func (c *checkpointer) unwrittenBytes(live []liveValue) int64 {
	var total int64
	seen := make(map[*matrix.Grid]bool)
	for _, v := range live {
		g := v.dm.Grid
		if _, ok := c.files[g]; ok || seen[g] {
			continue
		}
		seen[g] = true
		total += g.MemBytes()
	}
	return total
}

// SetCheckpoint attaches a checkpoint directory and policy to the engine.
// Subsequent runs snapshot their live values after stages the policy selects,
// and the stage retry loop restores from the newest valid checkpoint instead
// of replaying the whole lineage. An empty dir detaches checkpointing and
// restores the engine's default recovery behaviour.
func (e *Engine) SetCheckpoint(dir string, policy CheckpointPolicy) error {
	if dir == "" {
		e.ckpt = nil
		return nil
	}
	if err := policy.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: checkpoint dir: %w", err)
	}
	e.ckpt = &checkpointer{dir: dir, policy: policy.withDefaults()}
	return nil
}

// liveValue is one member of a snapshot: a plan value and its materialization.
type liveValue struct {
	id core.ValueID
	dm *dist.DistMatrix
}

// liveAfter pairs the plan's live set after stage with the run's values.
func (st *execState) liveAfter(stage int) []liveValue {
	ids := st.plan.LiveAfter(stage)
	live := make([]liveValue, len(ids))
	for i, id := range ids {
		live[i] = liveValue{id: id, dm: st.vals[id]}
	}
	return live
}

// writeCheckpoint snapshots the given live values (and the driver scalars) to
// a fresh checkpoint directory. Grids no earlier snapshot of the run holds are
// written in the checksummed grid format; the rest are referenced where they
// lie. The manifest is written last via an atomic rename, so the checkpoint
// becomes visible only complete. A write failure is not a run failure — the
// half-written directory simply never gets a manifest and the run continues
// with one fewer restore candidate (traced and counted).
func (e *Engine) writeCheckpoint(st *execState, stage int, live []liveValue) {
	c := e.ckpt
	span := e.tracer.Start("ckpt", "write", e.tracer.Scope(),
		obs.Int64("stage", int64(stage)), obs.Int64("seq", int64(c.seq)))
	start := time.Now()
	n, err := e.writeCheckpointFiles(st, stage, live)
	sec := time.Since(start).Seconds()
	if err != nil {
		e.tracer.End(span, obs.String("error", err.Error()))
		e.metrics.Counter("ckpt.write.failures").Inc()
		return
	}
	e.tracer.End(span, obs.Int64("bytes", n), obs.Float64("seconds", sec))
	e.metrics.Counter("ckpt.write.count").Inc()
	e.metrics.Counter("ckpt.write.bytes").Add(n)
	c.bytes += n
	c.seconds += sec
	c.sinceLast, c.pendingCost = 0, 0
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeCheckpointFiles returns the bytes it newly put on disk.
func (e *Engine) writeCheckpointFiles(st *execState, stage int, live []liveValue) (int64, error) {
	c := e.ckpt
	name := fmt.Sprintf("ckpt-%06d-stage%d", c.seq, stage)
	dir := filepath.Join(c.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	c.dirs = append(c.dirs, dir)
	man := ckptManifest{
		Version: manifestVersion,
		Seq:     c.seq,
		Stage:   stage,
		PlanSig: st.sig,
		Scalars: make(map[string]float64, len(e.scalars)),
	}
	for k, v := range e.scalars {
		man.Scalars[k] = v
	}
	var total int64
	// fresh holds the grids this snapshot writes. They join c.files only once
	// the manifest is in place: a later manifest must never point into a
	// directory that has none.
	fresh := make(map[*matrix.Grid]string)
	for _, v := range live {
		g := v.dm.Grid
		file, ok := c.files[g]
		if !ok {
			file, ok = fresh[g]
		}
		if !ok {
			file = filepath.Join(name, fmt.Sprintf("v%04d.dmgr", v.id))
			n, err := writeGridFile(filepath.Join(c.dir, file), g)
			total += n
			if err != nil {
				return total, err
			}
			fresh[g] = file
		}
		ref, err := filepath.Rel(name, file)
		if err != nil {
			return total, err
		}
		man.Values = append(man.Values, ckptValue{
			ID: int(v.id), File: ref, Scheme: int(v.dm.Scheme), Trans: v.dm.Trans(),
		})
	}
	blob, err := json.Marshal(&man)
	if err != nil {
		return total, err
	}
	tmp := filepath.Join(dir, "manifest.json.tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return total, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		return total, err
	}
	total += int64(len(blob))
	for g, file := range fresh {
		c.files[g] = file
	}
	c.written = append(c.written, writtenCkpt{seq: c.seq, stage: stage, dir: dir})
	c.seq++
	return total, nil
}

// writeGridFile writes one grid in the checksummed format and returns the
// bytes written.
func writeGridFile(path string, g *matrix.Grid) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	err = mio.WriteGridChecked(cw, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return cw.n, err
}

// loadCheckpoint validates one restore candidate from disk: the manifest must
// parse, match the running plan, and every file it names — in its own
// directory or an earlier snapshot's — must read back through the checksummed
// decoder (a truncated file, a flipped bit, or a deleted directory all fail
// here). Each file is read once and its grid shared by the values naming it,
// as they shared it when snapshotted. On success it returns the reconstructed
// values.
func (e *Engine) loadCheckpoint(w writtenCkpt, sig string) (*ckptManifest, map[int]*dist.DistMatrix, error) {
	blob, err := os.ReadFile(filepath.Join(w.dir, "manifest.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("manifest: %w", err)
	}
	var man ckptManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, nil, fmt.Errorf("manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, nil, fmt.Errorf("manifest version %d, want %d", man.Version, manifestVersion)
	}
	if man.PlanSig != sig || man.Stage != w.stage {
		return nil, nil, fmt.Errorf("manifest describes a different run (stage %d, sig %q)", man.Stage, man.PlanSig)
	}
	restored := make(map[int]*dist.DistMatrix, len(man.Values))
	grids := make(map[string]*matrix.Grid)
	for _, v := range man.Values {
		g, ok := grids[v.File]
		if !ok {
			f, err := os.Open(filepath.Join(w.dir, v.File))
			if err != nil {
				return nil, nil, fmt.Errorf("value %d: %w", v.ID, err)
			}
			g, err = mio.ReadGrid(f)
			f.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("value %d: %w", v.ID, err)
			}
			grids[v.File] = g
		}
		restored[v.ID] = dist.NewDistMatrixView(g, dep.Scheme(v.Scheme), v.Trans)
	}
	return &man, restored, nil
}

// restoreAndReplay is the recovery ladder of a checkpoint-enabled run. After
// a worker failure in failStage, it walks this run's checkpoints newest
// first, skipping any whose manifest or block files fail verification, and
// installs the first valid snapshot; then it replays the stages between the
// snapshot and the failed stage (no fault injection: replayed ops re-run
// deterministically, their communication and arithmetic charged as
// recomputation cost). With no valid checkpoint it replays the full lineage —
// every stage before the failure. The value table is rebuilt from the
// snapshot and the replay alone — nothing computed before the failure
// survives in memory — so a value the snapshot wrongly left out fails the
// run instead of being silently served. It returns how many stages were
// replayed.
func (e *Engine) restoreAndReplay(ctx context.Context, st *execState, failStage int) (int, error) {
	c := e.ckpt
	if c.testPreRestore != nil {
		c.testPreRestore()
	}
	from := -1
	var vals map[int]*dist.DistMatrix
	for i := len(c.written) - 1; i >= 0; i-- {
		w := c.written[i]
		if w.stage >= failStage {
			continue
		}
		vspan := e.tracer.Start("ckpt", "verify", e.tracer.Scope(),
			obs.Int64("stage", int64(w.stage)), obs.Int64("seq", int64(w.seq)))
		man, restored, err := e.loadCheckpoint(w, st.sig)
		e.metrics.Counter("ckpt.verify.count").Inc()
		if err != nil {
			e.tracer.End(vspan, obs.String("error", err.Error()))
			e.metrics.Counter("ckpt.verify.failures").Inc()
			continue
		}
		e.tracer.End(vspan)
		vals = restored
		for k, v := range man.Scalars {
			e.scalars[k] = v
		}
		from = w.stage
		break
	}
	for id := range st.vals {
		st.vals[id] = vals[id]
	}
	span := e.tracer.Start("ckpt", "restore", e.tracer.Scope(),
		obs.Int64("fail_stage", int64(failStage)), obs.Int64("from_stage", int64(from)))
	replayed := 0
	for _, s := range st.stages {
		if s <= from || s >= failStage {
			continue
		}
		if err := e.runOps(ctx, st.plan, s, st.byStage[s], st.vals, st.params); err != nil {
			e.tracer.End(span, obs.String("error", err.Error()))
			return replayed, fmt.Errorf("engine: replaying stage %d after restore: %w", s, err)
		}
		replayed++
	}
	e.tracer.End(span, obs.Int64("stages_replayed", int64(replayed)))
	e.metrics.Counter("ckpt.restore.count").Inc()
	e.metrics.Counter("ckpt.replay.stages").Add(int64(replayed))
	c.replayed += replayed
	return replayed, nil
}
