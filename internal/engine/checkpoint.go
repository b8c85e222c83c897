package engine

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dmac/internal/core"
	"dmac/internal/cost"
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
//
// A snapshot is the running execution's restore point, not an export: it
// holds exactly the bytes a restore of this run cannot get elsewhere, and is
// written in the background while the next stages compute. Each of its
// members is one of three kinds: a grid file (written by this snapshot or an
// earlier one of the run), a session instance named by variable, or a value
// derived on restore — recomputed from the other members by the operator
// that produced it, when that operator moved no bytes and its FLOPs price
// below writing the grid. No snapshot follows a run's last stage (nothing
// could restore from it), and the next run removes this run's.
type CheckpointPolicy struct {
	// Interval checkpoints after every Interval-th completed stage. 0
	// disables the fixed-interval trigger.
	Interval int
	// CostModel checkpoints after a stage once the modelled cost of
	// recomputing the stages since the last checkpoint exceeds the modelled
	// cost of writing the snapshot — the bytes of the live grids that
	// neither the session nor an earlier snapshot of the run already holds
	// and that a restore does not derive, at the cost model's storage rate.
	// This is the dependency-cost analogue of the classic
	// checkpoint-interval rule: pay the write when a failure would cost more
	// than the write does. A stage's cost is the modelled compute and
	// network seconds of its stage record when it completes: its attempts
	// and the recovery after its failures. Replays of earlier
	// stages book to those stages' records, which were already counted, so
	// a replay does not count again.
	CostModel bool
}

// Validate rejects policies that would behave silently oddly.
func (p CheckpointPolicy) Validate() error {
	if p.Interval < 0 {
		return fmt.Errorf("engine: checkpoint Interval %d is negative", p.Interval)
	}
	return nil
}

// manifestVersion versions the checkpoint manifest schema. Version 2 let a
// value's File name a grid file of an earlier snapshot of the same run and
// several values name one file; version 3 lets a value name a session
// instance (Var, VarScheme) instead of a file; version 4 lets a value be
// derived (Derive) from the snapshot's other members.
const manifestVersion = 4

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

// ckptValue locates one snapshotted plan value: in a file, in the session, or
// in the operator that recomputes it from the snapshot's other members.
//
// File is relative to the snapshot's directory: a bare name for a grid this
// snapshot wrote, a "../ckpt-…/" path for one an earlier snapshot of the run
// wrote. Values that share a grid (partition, broadcast, extract and
// lazy-transpose outputs alias their operand's blocks) name the same file. The
// grid file carries its own per-block CRC32C (mio version 2).
//
// Var, when set, replaces File: the value's grid is the grid of the session
// instance Var holds under scheme VarScheme. Session variables are the
// lineage roots — recovery already treats them as surviving a failure — so
// the snapshot names the instance instead of rewriting its bytes.
//
// Derive, when set, replaces both: the value is recomputed on restore by
// the plan operator that produces it — the one whose Output it is — reading
// input k of that operator as Derive[k] says (ckptInput). A snapshot derives
// a value only when its grid would otherwise be written by this snapshot —
// the session does not hold it and no file of the run has it — every member
// sharing that grid is derivable, and the operator moved no bytes when it
// ran, plans none, and reads only members or views of a member's grid. The
// price rule decides the rest: the operator's FLOPs, as it charged them and
// priced like any charge (engine.price), must cost less than cost.WriteSec of
// the grid.
//
// Scheme and Trans restore the value's own placement and lazy-transpose state
// whichever the kind.
type ckptValue struct {
	ID        int         `json:"id"`
	File      string      `json:"file,omitempty"`
	Var       string      `json:"var,omitempty"`
	VarScheme int         `json:"var_scheme,omitempty"`
	Derive    []ckptInput `json:"derive,omitempty"`
	Scheme    int         `json:"scheme"`
	Trans     bool        `json:"trans,omitempty"`
}

// ckptInput is where a derivation reads one input of its operator: a view
// over the grid of member Of — the input itself, or a member of the same
// logical matrix sharing its grid (a lazy transpose, extract or broadcast
// view) — with lazy-transpose state Trans, and the plan's placement of the
// input. A member Of that is derived itself is produced by an earlier
// operator, so restoring derived members in plan order finds every input
// ready.
type ckptInput struct {
	Of    int  `json:"of"`
	Trans bool `json:"trans,omitempty"`
}

// derivableOp reports whether op may recompute a snapshot member: a local
// compute (not one overwriting an input), transpose or extract that reads
// at least one input and plans no communication.
func derivableOp(op *core.Op) bool {
	switch op.Kind {
	case core.OpTranspose, core.OpExtract:
	case core.OpCompute:
		if op.InPlace >= 0 {
			return false
		}
	default:
		return false
	}
	return op.Output >= 0 && len(op.Inputs) > 0 && op.CommBytes == 0
}

// producers indexes, by value ID, the position in plan.Ops of the operator
// producing each value (-1: none, a lazy view or a lineage root).
func producers(plan *core.Plan) []int {
	at := make([]int, len(plan.Values))
	for i := range at {
		at[i] = -1
	}
	for i, op := range plan.Ops {
		if op.Output >= 0 {
			at[op.Output] = i
		}
	}
	return at
}

// viewTrans is the lazy-transpose state of a view holding value in over the
// grid of a member of value of whose own state is ofTrans. The two values
// carry one logical matrix; the grid holds it transposed when exactly one of
// of's stored orientation and of's view is, and the view turns that into
// in's stored orientation.
func viewTrans(plan *core.Plan, of core.ValueID, ofTrans bool, in core.ValueID) bool {
	return (plan.Value(of).Transposed != ofTrans) != plan.Value(in).Transposed
}

// valueDims is the shape of value id's stored data: its logical matrix's,
// transposed when the value stores the transpose.
func valueDims(plan *core.Plan, id core.ValueID) (rows, cols int) {
	v := plan.Value(id)
	n := plan.Program.Nodes()[v.Matrix]
	if v.Transposed {
		return n.Cols, n.Rows
	}
	return n.Rows, n.Cols
}

// sessionRef names one instance of a session variable; the zero value names
// none.
type sessionRef struct {
	name   string
	scheme dep.Scheme
}

func (r sessionRef) before(o sessionRef) bool {
	return r.name < o.name || r.name == o.name && r.scheme < o.scheme
}

// writtenCkpt is the in-memory record of a checkpoint written by the current
// run — the candidates of the recovery ladder. Validity is never assumed:
// restore re-reads and re-verifies everything from disk, and checks that
// every session instance the manifest names still holds the grid it held when
// the snapshot was taken (session).
type writtenCkpt struct {
	seq     int
	stage   int
	dir     string
	session map[sessionRef]*matrix.Grid
}

// checkpointer owns the checkpoint directory of an engine: the write policy,
// the sequence counter (monotone across runs, so directories never collide),
// and the per-run state the recovery ladder and the run metrics read.
type checkpointer struct {
	dir    string
	policy CheckpointPolicy

	// inflight is the snapshot the writer goroutine holds, nil when it holds
	// none. The fields down to seconds belong to that goroutine while
	// inflight is set and to the engine goroutine once Engine.joinSnapshot
	// has returned — one owner at a time, so no lock.
	inflight *snapshot
	seq      int
	written  []writtenCkpt
	// dirs lists every snapshot directory the run created, manifest or not,
	// for the next run to remove.
	dirs []string
	// files maps each grid a manifest of this run names to its file, relative
	// to dir. Materialized grids are immutable, so identity is content: a
	// grid is written once per run and later manifests point back at it.
	files map[*matrix.Grid]string
	// bytes newly put on disk, and the seconds the writer was busy doing it.
	bytes   int64
	seconds float64

	// The engine goroutine's alone, reset by beginRun with the rest.
	sinceLast   int
	pendingCost float64
	waitSeconds float64
	replayed    int

	// testPreRestore, when set (tests only), runs right before the recovery
	// ladder scans the checkpoints — the seam the crash-mid-checkpoint tests
	// use to damage on-disk state between write and restore.
	testPreRestore func()
	// testWriteGate, when set (tests only), runs on the writer goroutine
	// before it touches the snapshot directory it is given — the seam the
	// overlap tests use to hold a write while the run goes on, or to make it
	// fail.
	testWriteGate func(dir string)
	// testPreWait, when set (tests only), runs on the engine goroutine when a
	// join finds the snapshot taken after stage unfinished, right before it
	// blocks — so a held write can be released exactly when the run waits
	// for it.
	testPreWait func(stage int)
}

// beginRun resets the per-run state and removes the previous run's snapshot
// directories: they describe a different execution's values, so no later run
// can restore from them, and left in place they grow the directory without
// bound. The caller has joined the writer.
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
	c.bytes, c.seconds, c.waitSeconds, c.replayed = 0, 0, 0, 0
}

// noteStage records one completed stage and its modelled cost — what a
// failure right now would have to recompute.
func (c *checkpointer) noteStage(modelCost float64) {
	c.sinceLast++
	c.pendingCost += modelCost
}

// shouldCheckpoint applies the policy to a snapshot of the given live values;
// a wait it makes for the snapshot in flight is traced under parent.
func (e *Engine) shouldCheckpoint(live []liveValue, parent obs.SpanID) bool {
	c := e.ckpt
	if c.policy.Interval > 0 && c.sinceLast >= c.policy.Interval {
		return true
	}
	if !c.policy.CostModel {
		return false
	}
	e.joinSnapshot(parent) // snapshotBytes reads files
	return c.pendingCost > cost.WriteSec(c.snapshotBytes(live))
}

// manifestBytesPerValue is what one value costs in manifest.json, roughly —
// all a snapshot of values that are already held somewhere writes.
const manifestBytesPerValue = 64

// snapshotBytes prices the snapshot the checkpointer is deciding about: its
// manifest plus the footprint of the live grids that neither the session
// holds nor a manifest of this run names yet nor a restore derives, each
// shared grid counted once.
func (c *checkpointer) snapshotBytes(live []liveValue) int64 {
	total := int64(manifestBytesPerValue * len(live))
	seen := make(map[*matrix.Grid]bool)
	for _, v := range live {
		if _, ok := c.files[v.grid]; ok || v.held.name != "" || v.derive != nil || seen[v.grid] {
			continue
		}
		seen[v.grid] = true
		total += v.grid.MemBytes()
	}
	return total
}

// SetCheckpoint attaches a checkpoint directory and policy to the engine.
// Subsequent runs snapshot their live values after stages the policy selects
// — written in the background while later stages compute, and finished
// before Run returns, whatever way it returns — and the stage retry loop
// restores from the newest valid checkpoint instead of replaying the whole
// lineage. The engine owns dir: snapshot directories an earlier process left
// there are removed (nothing can restore from them), as each run removes the
// run's before it. An empty dir detaches checkpointing and restores the
// engine's default recovery behaviour.
func (e *Engine) SetCheckpoint(dir string, policy CheckpointPolicy) error {
	e.joinSnapshot(0)
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
	// seq restarts at 0 with the checkpointer, so a directory left behind
	// would be written into, its old files beside the new.
	stale, _ := filepath.Glob(filepath.Join(dir, "ckpt-*-stage*"))
	for _, d := range stale {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("engine: checkpoint dir: %w", err)
		}
	}
	e.ckpt = &checkpointer{dir: dir, policy: policy}
	return nil
}

// liveValue is one member of a snapshot: a plan value and its
// materialization, copied out of the value table on the engine goroutine —
// the run may realize a lazy transpose view in place (swapping a DistMatrix's
// grid) while the writer is still encoding. The grids themselves never
// change. held names the session instance whose grid the value's is, if any;
// derive, when set, is how a restore recomputes the value, which the writer
// uses unless a file of the run already holds the grid.
type liveValue struct {
	id     core.ValueID
	grid   *matrix.Grid
	scheme dep.Scheme
	trans  bool
	held   sessionRef
	derive []ckptInput
}

// liveAfter pairs the plan's live set after stage with the run's values and
// marks the members a restore derives.
func (e *Engine) liveAfter(st *execState, stage int) []liveValue {
	// Index the session's instances by grid — the identity rule files uses.
	// Of several instances sharing a grid the first in (name, scheme) order
	// stands for it, so manifests do not depend on map order.
	held := make(map[*matrix.Grid]sessionRef)
	for name, vs := range e.vars {
		for scheme, inst := range vs.instances {
			ref := sessionRef{name, scheme}
			if cur, ok := held[inst.Grid]; !ok || ref.before(cur) {
				held[inst.Grid] = ref
			}
		}
	}
	ids := st.plan.LiveAfter(stage)
	live := make([]liveValue, len(ids))
	for i, id := range ids {
		dm := st.vals[id]
		live[i] = liveValue{id: id, grid: dm.Grid, scheme: dm.Scheme, trans: dm.Trans(), held: held[dm.Grid]}
	}
	e.markDerived(st, live)
	return live
}

// markDerived sets the derivation of every member a restore can recompute for
// less than writing it (see ckptValue). It walks the plan in order, so a
// derived member's inputs come from members stored whatever happens — held,
// or not derivable at all — or derived by an earlier operator; then it keeps
// a grid's members derived only if all of them are, since a grid written for
// one member is read back for every member sharing it.
func (e *Engine) markDerived(st *execState, live []liveValue) {
	cfg := e.cluster.Config()
	member := make(map[core.ValueID]int, len(live))
	for i, v := range live {
		member[v.id] = i
	}
	// stored marks the members whose grid a restore has before it derives
	// anything, and done the derived ones an earlier operator produced.
	stored := make([]bool, len(live))
	done := make([]bool, len(live))
	cheap := func(v liveValue) bool {
		made := st.made[v.id]
		compute, _ := price(cfg, dist.Snapshot{FLOPs: made.FLOPs})
		return made.CommBytes == 0 && made.CommEvents == 0 && compute < cost.WriteSec(v.grid.MemBytes())
	}
	plan := st.plan
	at := producers(plan)
	for j, v := range live {
		stored[j] = v.held.name != "" || at[v.id] < 0 || !derivableOp(plan.Ops[at[v.id]]) || !cheap(v)
	}
	// source finds the member whose grid input id, held as dm, is read over:
	// its own value if that is a member, else the first member of its
	// logical matrix sharing its grid in an orientation viewTrans gives back.
	source := func(id core.ValueID, dm *dist.DistMatrix) (int, bool) {
		if j, ok := member[id]; ok && (stored[j] || done[j]) {
			return j, true
		}
		for j, v := range live {
			if v.grid == dm.Grid && (stored[j] || done[j]) && plan.Value(v.id).Matrix == plan.Value(id).Matrix &&
				dm.Trans() == viewTrans(plan, v.id, v.trans, id) {
				return j, true
			}
		}
		return 0, false
	}
	for i, op := range plan.Ops {
		j, ok := member[op.Output]
		if !ok || stored[j] || at[op.Output] != i {
			continue
		}
		d := make([]ckptInput, len(op.Inputs))
		for k, id := range op.Inputs {
			dm, of, found := st.vals[id], 0, false
			if dm != nil && dm.Scheme == plan.Value(id).Scheme {
				of, found = source(id, dm)
			}
			if !found {
				d = nil
				break
			}
			d[k] = ckptInput{Of: int(live[of].id), Trans: dm.Trans()}
		}
		if d == nil {
			stored[j] = true
			continue
		}
		live[j].derive, done[j] = d, true
	}
	written := make(map[*matrix.Grid]bool)
	for j, v := range live {
		if stored[j] && v.held.name == "" {
			written[v.grid] = true
		}
	}
	for j := range live {
		if written[live[j].grid] {
			live[j].derive = nil
		}
	}
}

// snapshot is what a checkpoint boundary hands the writer goroutine:
// everything it reads was captured, by value, on the engine goroutine.
type snapshot struct {
	stage   int
	sig     string
	live    []liveValue
	scalars map[string]float64
	// parent is the span of the stage that triggered the snapshot: the
	// writer's span parents under it.
	parent obs.SpanID
	// done is closed when the writer has finished the snapshot, written or
	// failed.
	done chan struct{}
}

// startSnapshot hands the live values after stage (and the driver scalars) to
// a writer goroutine and returns: the write overlaps the stages that follow.
// At most one snapshot is in flight — a second submission first waits for the
// first, which bounds the memory a slow disk can pin and shows up as wait
// time, traced under run — and joinSnapshot is how the run gets the writer's
// state back. The write is traced under the span of stage, stageSpan.
func (e *Engine) startSnapshot(st *execState, stage int, live []liveValue, run, stageSpan obs.SpanID) {
	e.joinSnapshot(run)
	c := e.ckpt
	snap := &snapshot{
		stage: stage, sig: st.sig, live: live, scalars: maps.Clone(e.scalars),
		parent: stageSpan, done: make(chan struct{}),
	}
	c.sinceLast, c.pendingCost = 0, 0
	c.inflight = snap
	go func() {
		defer close(snap.done)
		e.writeSnapshot(snap)
	}()
}

// joinSnapshot waits for the snapshot in flight, if any; on return the
// engine goroutine owns the checkpointer's state again. The join points are
// the places that read or reset that state — the recovery ladder, the
// cost-model trigger, the next submission, beginRun, SetCheckpoint, Close —
// and every return path of execute: a run never returns, not even failed or
// cancelled, with a snapshot half-written behind it. Time spent blocked here
// is the only time a snapshot costs the run (Metrics.CheckpointWaitSeconds),
// and a blocking wait is traced under parent.
func (e *Engine) joinSnapshot(parent obs.SpanID) {
	c := e.ckpt
	if c == nil || c.inflight == nil {
		return
	}
	s := c.inflight
	select {
	case <-s.done:
	default:
		span := e.tracer.Start("ckpt", "wait", parent, obs.Int64("stage", int64(s.stage)))
		start := time.Now()
		if c.testPreWait != nil {
			c.testPreWait(s.stage)
		}
		<-s.done
		c.waitSeconds += time.Since(start).Seconds()
		e.tracer.End(span)
	}
	c.inflight = nil
}

// writeSnapshot runs on the writer goroutine: it writes one snapshot to a
// fresh checkpoint directory and books it. A write failure is not a run
// failure — the half-written directory simply never gets a manifest and the
// run continues with one fewer restore candidate (traced and counted).
func (e *Engine) writeSnapshot(s *snapshot) {
	c := e.ckpt
	name := fmt.Sprintf("ckpt-%06d-stage%d", c.seq, s.stage)
	if c.testWriteGate != nil {
		c.testWriteGate(filepath.Join(c.dir, name))
	}
	span := e.tracer.Start("ckpt", "write", s.parent,
		obs.Int64("stage", int64(s.stage)), obs.Int64("seq", int64(c.seq)))
	start := time.Now()
	size, err := c.writeFiles(name, s)
	sec := time.Since(start).Seconds()
	if err != nil {
		e.tracer.End(span, obs.String("error", err.Error()))
		e.metrics.Counter("ckpt.write.failures").Inc()
		return
	}
	e.tracer.End(span, obs.Int64("bytes", size.written), obs.Float64("seconds", sec),
		obs.Int64("session_refs", size.refs), obs.Int64("session_ref_bytes", size.refBytes),
		obs.Int64("derived", size.derived), obs.Int64("derived_bytes", size.derivedBytes))
	e.metrics.Counter("ckpt.write.count").Inc()
	e.metrics.Counter("ckpt.write.bytes").Add(size.written)
	e.metrics.Counter("ckpt.session_refs").Add(size.refs)
	e.metrics.Counter("ckpt.session_ref.bytes").Add(size.refBytes)
	c.bytes += size.written
	c.seconds += sec
}

// snapshotSize is what one snapshot put on disk and what it left where it
// was: the bytes newly written, the values named in the session instead and
// the footprint of the grids those values share, and the values a restore
// derives and the footprint of their grids.
type snapshotSize struct {
	written, refs, refBytes int64
	derived, derivedBytes   int64
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

// writeFiles writes the snapshot's directory: grids neither the session nor
// an earlier snapshot of the run holds, and no restore derives, go out in the
// checksummed grid format, the rest are referenced where they lie or named
// by their derivation, and the manifest is written last via an atomic
// rename, so the checkpoint becomes visible only complete.
func (c *checkpointer) writeFiles(name string, s *snapshot) (size snapshotSize, err error) {
	dir := filepath.Join(c.dir, name)
	c.dirs = append(c.dirs, dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return size, err
	}
	man := ckptManifest{
		Version: manifestVersion,
		Seq:     c.seq,
		Stage:   s.stage,
		PlanSig: s.sig,
		Scalars: s.scalars,
	}
	// fresh holds the grids this snapshot writes. They join c.files only once
	// the manifest is in place: a later manifest must never point into a
	// directory that has none.
	fresh := make(map[*matrix.Grid]string)
	session := make(map[sessionRef]*matrix.Grid)
	derived := make(map[*matrix.Grid]bool)
	for _, v := range s.live {
		mv := ckptValue{ID: int(v.id), Scheme: int(v.scheme), Trans: v.trans}
		if v.held.name != "" {
			if _, ok := session[v.held]; !ok {
				session[v.held] = v.grid
				size.refBytes += v.grid.MemBytes()
			}
			size.refs++
			mv.Var, mv.VarScheme = v.held.name, int(v.held.scheme)
			man.Values = append(man.Values, mv)
			continue
		}
		file, ok := c.files[v.grid]
		if !ok {
			file, ok = fresh[v.grid]
		}
		if !ok && v.derive != nil {
			if !derived[v.grid] {
				derived[v.grid] = true
				size.derivedBytes += v.grid.MemBytes()
			}
			size.derived++
			mv.Derive = v.derive
			man.Values = append(man.Values, mv)
			continue
		}
		if !ok {
			file = filepath.Join(name, fmt.Sprintf("v%04d.dmgr", v.id))
			n, err := writeGridFile(filepath.Join(c.dir, file), v.grid)
			size.written += n
			if err != nil {
				return size, err
			}
			fresh[v.grid] = file
		}
		if mv.File, err = filepath.Rel(name, file); err != nil {
			return size, err
		}
		man.Values = append(man.Values, mv)
	}
	blob, err := json.Marshal(&man)
	if err != nil {
		return size, err
	}
	tmp := filepath.Join(dir, "manifest.json.tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return size, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		return size, err
	}
	size.written += int64(len(blob))
	for g, file := range fresh {
		c.files[g] = file
	}
	c.written = append(c.written, writtenCkpt{seq: c.seq, stage: s.stage, dir: dir, session: session})
	c.seq++
	return size, nil
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

// restoredCkpt is a restore candidate that verified.
type restoredCkpt struct {
	scalars map[string]float64
	vals    map[int]*dist.DistMatrix
	// files holds the grid read from each file, keyed like
	// checkpointer.files: relative to the checkpoint directory.
	files map[string]*matrix.Grid
	// derived lists the members still to recompute (Engine.derive), in plan
	// order.
	derived []derivedMember
}

// derivedMember is a derived member of a restore candidate and the position
// in the plan's Ops of the operator producing it.
type derivedMember struct {
	ckptValue
	op int
}

// loadCheckpoint validates one restore candidate: the manifest must parse and
// match the running plan; every file it names — in its own directory or an
// earlier snapshot's — must read back through the checksummed decoder (a
// truncated file, a flipped bit, or a deleted directory all fail here); and
// every session instance it names must still hold the grid it held when the
// snapshot was taken (one the run has since realized in place, or that is
// gone, fails the candidate). Session-held values are resolved from the
// session, never from the failed execution's value table. Each file is read
// once and its grid shared by the values naming it, as they shared it when
// snapshotted. A derived member must be produced by an operator of the
// running plan that moves no bytes (derivableOp), and name one source per
// input of it, each a member of the input's logical matrix resolved before
// it — read, named, or derived by an earlier operator — viewed in the
// orientation and shape the plan gives the input. Its recomputation is left
// to the ladder (Engine.derive).
func (e *Engine) loadCheckpoint(w writtenCkpt, st *execState) (*restoredCkpt, error) {
	sig := st.sig
	blob, err := os.ReadFile(filepath.Join(w.dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var man ckptManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("manifest version %d, want %d", man.Version, manifestVersion)
	}
	if man.PlanSig != sig || man.Stage != w.stage {
		return nil, fmt.Errorf("manifest describes a different run (stage %d, sig %q)", man.Stage, man.PlanSig)
	}
	r := &restoredCkpt{
		scalars: man.Scalars,
		vals:    make(map[int]*dist.DistMatrix, len(man.Values)),
		files:   make(map[string]*matrix.Grid),
	}
	seen := make(map[int]bool, len(man.Values))
	at := producers(st.plan)
	for _, v := range man.Values {
		if v.ID < 0 || v.ID >= len(st.plan.Values) || seen[v.ID] {
			return nil, fmt.Errorf("value %d: not one value of the plan", v.ID)
		}
		seen[v.ID] = true
		if v.Derive != nil {
			if v.File != "" || v.Var != "" {
				return nil, fmt.Errorf("value %d: derived and stored", v.ID)
			}
			if op := at[v.ID]; op < 0 || !derivableOp(st.plan.Ops[op]) {
				return nil, fmt.Errorf("value %d: no operator produces it without moving bytes", v.ID)
			}
			r.derived = append(r.derived, derivedMember{v, at[v.ID]})
			continue
		}
		var g *matrix.Grid
		if v.Var != "" {
			ref := sessionRef{v.Var, dep.Scheme(v.VarScheme)}
			if vs := e.vars[ref.name]; vs != nil && vs.instances[ref.scheme] != nil {
				g = vs.instances[ref.scheme].Grid
			}
			if g == nil || g != w.session[ref] {
				return nil, fmt.Errorf("value %d: session instance %s(%s) no longer holds the snapshotted grid", v.ID, ref.name, ref.scheme)
			}
		} else {
			file := filepath.Join(filepath.Base(w.dir), v.File)
			if g = r.files[file]; g == nil {
				f, err := os.Open(filepath.Join(e.ckpt.dir, file))
				if err != nil {
					return nil, fmt.Errorf("value %d: %w", v.ID, err)
				}
				g, err = mio.ReadGrid(f)
				f.Close()
				if err != nil {
					return nil, fmt.Errorf("value %d: %w", v.ID, err)
				}
				r.files[file] = g
			}
		}
		r.vals[v.ID] = dist.NewDistMatrixView(g, dep.Scheme(v.Scheme), v.Trans)
	}
	slices.SortFunc(r.derived, func(a, b derivedMember) int { return cmp.Compare(a.op, b.op) })
	trans := make(map[int]bool, len(man.Values)) // the resolved members' view states
	for id, dm := range r.vals {
		trans[id] = dm.Trans()
	}
	for _, d := range r.derived {
		if err := r.checkDerive(st.plan, d, trans); err != nil {
			return nil, fmt.Errorf("value %d: %w", d.ID, err)
		}
		trans[d.ID] = d.Trans
	}
	return r, nil
}

// checkDerive checks one derived member against the running plan, given the
// view states of the members resolved before it: each input of its operator
// is read over one of them of the input's logical matrix, in the orientation
// viewTrans gives, and in the input's shape — over a member read or named,
// that member's grid; over a derived one, the grid its plan value has.
func (r *restoredCkpt) checkDerive(plan *core.Plan, d derivedMember, trans map[int]bool) error {
	op := plan.Ops[d.op]
	if len(d.Derive) != len(op.Inputs) {
		return fmt.Errorf("derived from %d inputs, op %d (%s) reads %d", len(d.Derive), d.op, op.Kind, len(op.Inputs))
	}
	for k, in := range d.Derive {
		id := op.Inputs[k]
		ofTrans, ok := trans[in.Of]
		of := core.ValueID(in.Of)
		if !ok || plan.Value(of).Matrix != plan.Value(id).Matrix {
			return fmt.Errorf("input %d of op %d is not over a member of its matrix restored before it", k, d.op)
		}
		if in.Trans != viewTrans(plan, of, ofTrans, id) {
			return fmt.Errorf("input %d of op %d is read transposed the wrong way", k, d.op)
		}
		var rows, cols int
		if src := r.vals[in.Of]; src != nil {
			rows, cols = src.Grid.Rows(), src.Grid.Cols()
		} else if rows, cols = valueDims(plan, of); ofTrans {
			rows, cols = cols, rows
		}
		if in.Trans {
			rows, cols = cols, rows
		}
		if wr, wc := valueDims(plan, id); rows != wr || cols != wc {
			return fmt.Errorf("input %d of op %d is %dx%d, the plan's is %dx%d", k, d.op, rows, cols, wr, wc)
		}
	}
	return nil
}

// deriveCharger collects the charges of one derived member's operator.
type deriveCharger struct{ dist.Snapshot }

func (c *deriveCharger) Charge(s dist.Snapshot) { c.Add(s) }

// derive recomputes a verified candidate's derived members in plan order
// through the ordinary operator path (dispatch), each input rebuilt over its
// member's grid, and books their charges to failStage's record: FLOPs only —
// an operator that moves a byte, or that does not give back the placement
// the snapshot recorded, fails the candidate. The inputs it installs in the
// value table are the caller's to clear. Its spans parent under parent.
func (e *Engine) derive(ctx context.Context, st *execState, r *restoredCkpt, failStage int, parent obs.SpanID) error {
	if len(r.derived) == 0 {
		return nil
	}
	span := e.tracer.Start("ckpt", "derive", parent, obs.Int64("values", int64(len(r.derived))))
	for _, v := range r.derived {
		op := st.plan.Ops[v.op]
		for k, in := range v.Derive {
			id := op.Inputs[k]
			st.vals[id] = dist.NewDistMatrixView(r.vals[in.Of].Grid, st.plan.Value(id).Scheme, in.Trans)
		}
		var ch deriveCharger
		octx := dist.WithCharger(ctx, &ch)
		ospan := e.opSpan(st.plan, op.Stage, op, span)
		if ospan != 0 {
			octx = obs.ContextWithSpan(octx, ospan)
		}
		out, err := e.dispatch(octx, st, op)
		e.tracer.End(ospan)
		st.ledger[failStage-1].Add(ch.Snapshot)
		switch {
		case err != nil:
		case ch.CommBytes != 0 || ch.CommEvents != 0:
			err = fmt.Errorf("derivation moved %d bytes", ch.CommBytes)
		case out == nil || out.Scheme != dep.Scheme(v.Scheme) || out.Trans() != v.Trans:
			err = fmt.Errorf("derivation does not give the snapshotted placement")
		}
		if err != nil {
			err = fmt.Errorf("value %d: %w", v.ID, err)
			e.tracer.End(span, obs.String("error", err.Error()))
			return err
		}
		st.made[v.ID] = ch.Snapshot
		r.vals[v.ID] = out
	}
	e.tracer.End(span)
	return nil
}

// restoreAndReplay is the recovery ladder of a checkpoint-enabled run. After
// a worker failure in failStage, it waits for the snapshot in flight — the
// newest candidate — then walks this run's checkpoints newest first,
// skipping any whose manifest, block files, session references or
// derivations fail verification, and installs the first valid snapshot:
// its files and session references first, then its derived members
// recomputed in plan order (derive, charged to failStage); then it replays the
// stages between the snapshot and the failed stage through runStageOnce (no
// fault injection: replayed ops re-run deterministically, their communication
// and arithmetic booked to the stage they recompute). With no valid
// checkpoint it replays the full lineage — every stage before the failure.
// The value table is rebuilt from the snapshot and the replay alone — nothing
// computed before the failure survives in memory — so a value the snapshot
// wrongly left out fails the run instead of being silently served. The
// ladder's own time up to the replay books to the failed stage. Its spans,
// and the replayed ops', parent under parent.
func (e *Engine) restoreAndReplay(ctx context.Context, st *execState, failStage int, parent obs.SpanID) error {
	c := e.ckpt
	start := time.Now()
	e.joinSnapshot(parent)
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
		vspan := e.tracer.Start("ckpt", "verify", parent,
			obs.Int64("stage", int64(w.stage)), obs.Int64("seq", int64(w.seq)))
		r, err := e.loadCheckpoint(w, st)
		if err == nil {
			err = e.derive(ctx, st, r, failStage, vspan)
		}
		e.metrics.Counter("ckpt.verify.count").Inc()
		if err != nil {
			e.tracer.End(vspan, obs.String("error", err.Error()))
			e.metrics.Counter("ckpt.verify.failures").Inc()
			continue
		}
		e.tracer.End(vspan)
		vals = r.vals
		for k, v := range r.scalars {
			e.scalars[k] = v
		}
		// The grids just read are the contents of their files: the next
		// snapshot references them there instead of writing them again.
		for file, g := range r.files {
			c.files[g] = file
		}
		from = w.stage
		break
	}
	for id := range st.vals {
		st.vals[id] = vals[id]
	}
	st.since(failStage, start)
	span := e.tracer.Start("ckpt", "restore", parent,
		obs.Int64("fail_stage", int64(failStage)), obs.Int64("from_stage", int64(from)))
	replayed := 0
	for s := max(from, 0) + 1; s < failStage; s++ {
		if err := e.runStageOnce(ctx, st, s, replay, parent); err != nil {
			e.tracer.End(span, obs.String("error", err.Error()))
			return fmt.Errorf("engine: replaying stage %d after restore: %w", s, err)
		}
		replayed++
	}
	e.tracer.End(span, obs.Int64("stages_replayed", int64(replayed)))
	e.metrics.Counter("ckpt.restore.count").Inc()
	e.metrics.Counter("ckpt.replay.stages").Add(int64(replayed))
	c.replayed += replayed
	return nil
}
