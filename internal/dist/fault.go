package dist

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"dmac/internal/mio"
	"dmac/internal/obs"
)

// FaultKind discriminates the injectable faults. Kills model Spark worker
// loss: the stage attempt they hit fails, the worker leaves the cluster for
// good, and the engine recovers the lost blocks from lineage before
// retrying. Delays model transient stalls (GC pauses, slow disks) that cost
// time but no data. Corruptions model silent data damage in transit or at
// rest: a byte of one block flips between sender and receiver, and the
// checksum verification at block hand-off must detect it, quarantine the
// damaged copy, and re-fetch the block from its source.
type FaultKind int

// The injectable fault kinds.
const (
	// FaultKillBoundary kills the worker at the stage boundary, before any
	// task of the stage runs.
	FaultKillBoundary FaultKind = iota
	// FaultKillTask kills the worker while the stage's block tasks are
	// running: the work already done by the attempt is charged, then the
	// stage fails.
	FaultKillTask
	// FaultDelay stalls the stage by DelaySec without losing data.
	FaultDelay
	// FaultCorrupt flips a byte of one block sent by the event's worker at
	// the stage's next block hand-off. The corruption is detected by the
	// CRC32C check at the receiver, counted in NetStats, and healed by
	// re-fetching the block — results stay bit-identical.
	FaultCorrupt
	// FaultNetDrop drops the blocks the stage sends to the event's worker;
	// the transport detects the loss and retransmits, so the fault costs a
	// retransmit round-trip (stall plus, on a wire transport, the repeated
	// bytes) but never data.
	FaultNetDrop
	// FaultNetDelay stalls the stage's traffic to the event's worker by
	// DelaySec without losing anything.
	FaultNetDelay
	// FaultNetPartition cuts the link to the event's worker: the first
	// collective that must reach it fails with a *WorkerFailure of this
	// kind, and the engine recovers exactly as for a killed worker (the
	// partitioned worker leaves the cluster, its blocks are re-partitioned
	// from lineage, the stage retries). Heartbeat-detected dead peers of the
	// TCP transport surface with this kind too.
	FaultNetPartition
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultKillBoundary:
		return "kill-boundary"
	case FaultKillTask:
		return "kill-task"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultNetDrop:
		return "net-drop"
	case FaultNetDelay:
		return "net-delay"
	case FaultNetPartition:
		return "net-partition"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one scripted fault: at the given stage, on the given retry
// attempt (0 = the first execution), the given worker fails or stalls.
type FaultEvent struct {
	// Run is the 1-based index of the cluster's run (BeginRun) the fault
	// fires in; 0 fires it in every run that reaches Stage, so a kill lands
	// in the first of them (its worker is dead in the rest).
	Run int
	// Stage is the 1-based stage index the fault fires at.
	Stage int
	// Worker is the victim worker index.
	Worker int
	// Attempt selects which execution attempt of the stage the fault fires
	// on; 0 is the first attempt, so retries succeed.
	Attempt int
	// Kind is the fault type.
	Kind FaultKind
	// DelaySec is the stall charged by a FaultDelay event.
	DelaySec float64
}

// FaultPlan deterministically injects worker faults at stage boundaries or
// into running block tasks. A plan combines scripted events with an optional
// seeded random component: with Rate > 0, each (stage, worker) pair fails
// with probability Rate, decided by a hash of (Seed, stage, worker) — the
// same plan always kills the same workers at the same stages, which is what
// lets the chaos harness assert bit-identical results across runs.
//
// Random kills fire on every attempt while their worker is alive, so a
// stage with several doomed workers loses them one retry at a time; scripted
// events fire only on their configured attempt. The cluster never kills its
// last surviving worker: events that would are ignored.
type FaultPlan struct {
	// Events are scripted faults.
	Events []FaultEvent
	// Seed drives the random component.
	Seed int64
	// Rate is the probability a given (stage, worker) pair fails. 0 disables
	// the random component.
	Rate float64
	// TaskFaults makes random kills fire mid-stage (FaultKillTask) instead
	// of at the stage boundary.
	TaskFaults bool
	// CorruptRate is the probability a given (stage, worker) pair corrupts a
	// block it sends at that stage's first hand-off (decided by a hash of
	// (Seed, stage, worker), independent of Rate's kill decisions). 0
	// disables random corruption.
	CorruptRate float64
	// NetDropRate is the probability the network drops the blocks a stage's
	// first attempt sends to a given worker (decided by a salted hash of
	// (Seed, stage, worker), independent of the kill and corruption
	// decisions). Dropped transfers are retransmitted — the fault costs a
	// stall and repeated wire bytes, never data. 0 disables random drops.
	NetDropRate float64
	// NetPartition lists workers cut off from the cluster starting at stage
	// NetPartitionStage (0 means from the first stage). A partitioned worker
	// fails the first collective that must reach it with a *WorkerFailure of
	// kind FaultNetPartition and is then recovered like a killed worker.
	NetPartition []int
	// NetPartitionStage is the 1-based stage the partition begins at; 0
	// partitions from the start.
	NetPartitionStage int
}

// injectsNet reports whether the plan injects network faults, which is what
// decides whether the cluster wraps its transport in the fault injector.
func (p FaultPlan) injectsNet() bool {
	if p.NetDropRate > 0 || len(p.NetPartition) > 0 {
		return true
	}
	for _, ev := range p.Events {
		switch ev.Kind {
		case FaultNetDrop, FaultNetDelay, FaultNetPartition:
			return true
		}
	}
	return false
}

// Validate rejects plans that would behave silently oddly: probabilities
// outside [0, 1], negative delays, and events naming negative runs, stages,
// workers or attempts. Cluster setup records the verdict and the first
// BeginStage surfaces it, so a malformed plan fails a run with a descriptive
// error instead of injecting nothing (or hashing garbage).
func (p FaultPlan) Validate() error {
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("dist: fault plan Rate %v outside [0,1]", p.Rate)
	}
	if p.CorruptRate < 0 || p.CorruptRate > 1 {
		return fmt.Errorf("dist: fault plan CorruptRate %v outside [0,1]", p.CorruptRate)
	}
	if p.NetDropRate < 0 || p.NetDropRate > 1 {
		return fmt.Errorf("dist: fault plan NetDropRate %v outside [0,1]", p.NetDropRate)
	}
	if p.NetPartitionStage < 0 {
		return fmt.Errorf("dist: fault plan has negative NetPartitionStage %d", p.NetPartitionStage)
	}
	for i, w := range p.NetPartition {
		if w < 0 {
			return fmt.Errorf("dist: fault plan NetPartition[%d] is negative worker %d", i, w)
		}
	}
	for i, ev := range p.Events {
		switch {
		case ev.Run < 0:
			return fmt.Errorf("dist: fault event %d has negative Run %d", i, ev.Run)
		case ev.Stage < 0:
			return fmt.Errorf("dist: fault event %d has negative Stage %d", i, ev.Stage)
		case ev.Worker < 0:
			return fmt.Errorf("dist: fault event %d has negative Worker %d", i, ev.Worker)
		case ev.Attempt < 0:
			return fmt.Errorf("dist: fault event %d has negative Attempt %d", i, ev.Attempt)
		case ev.DelaySec < 0:
			return fmt.Errorf("dist: fault event %d has negative DelaySec %v", i, ev.DelaySec)
		case ev.Kind < FaultKillBoundary || ev.Kind > FaultNetPartition:
			return fmt.Errorf("dist: fault event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// ValidateFor is Validate plus the checks that need the cluster size:
// partitioning a worker the cluster does not have would silently inject
// nothing, so it is rejected here. (Scripted kill events naming out-of-range
// workers stay merely ignored, as documented on BeginStage — existing plans
// rely on that — but a partition is a topology statement and a typo'd worker
// index in one is always a bug.)
func (p FaultPlan) ValidateFor(workers int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, w := range p.NetPartition {
		if w >= workers {
			return fmt.Errorf("dist: fault plan NetPartition[%d] names worker %d of a %d-worker cluster", i, w, workers)
		}
	}
	return nil
}

// RandomFaultPlan returns a purely seeded plan that kills each (stage,
// worker) pair at stage boundaries with the given probability.
func RandomFaultPlan(seed int64, rate float64) FaultPlan {
	return FaultPlan{Seed: seed, Rate: rate}
}

// hashUnit maps (seed, stage, worker) to a deterministic value in [0, 1).
func hashUnit(seed int64, stage, worker int) float64 {
	h := fnv.New64a()
	var buf [24]byte
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, uint64(seed))
	put(8, uint64(stage))
	put(16, uint64(worker))
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// eventsAt lists the faults the plan fires for one stage attempt on a
// cluster of the given size, scripted events first, in deterministic order.
// BeginStage drops the scripted events meant for another run.
func (p FaultPlan) eventsAt(stage, attempt, workers int) []FaultEvent {
	var out []FaultEvent
	for _, ev := range p.Events {
		if ev.Stage == stage && ev.Attempt == attempt {
			out = append(out, ev)
		}
	}
	if p.Rate > 0 {
		kind := FaultKillBoundary
		if p.TaskFaults {
			kind = FaultKillTask
		}
		for w := 0; w < workers; w++ {
			if hashUnit(p.Seed, stage, w) < p.Rate {
				out = append(out, FaultEvent{Stage: stage, Worker: w, Attempt: attempt, Kind: kind})
			}
		}
	}
	if p.CorruptRate > 0 && attempt == 0 {
		// Corruption decisions are salted so they are independent of the kill
		// decisions at the same (stage, worker); they fire on the first
		// attempt only — retried attempts re-shuffle clean data, as a real
		// transient bit-flip would.
		for w := 0; w < workers; w++ {
			if hashUnit(p.Seed^corruptSalt, stage, w) < p.CorruptRate {
				out = append(out, FaultEvent{Stage: stage, Worker: w, Attempt: attempt, Kind: FaultCorrupt})
			}
		}
	}
	return out
}

// corruptSalt decorrelates random corruption from random kills under the
// same seed; netDropSalt does the same for random network drops.
const (
	corruptSalt int64 = 0x5bd1e995
	netDropSalt int64 = 0x27d4eb2f
)

// ErrWorkerLost is the sentinel all worker-loss failures match:
// errors.Is(err, dist.ErrWorkerLost) classifies injected kills, network
// partitions, and heartbeat-detected dead peers alike, without caring which
// kind the *WorkerFailure carries.
var ErrWorkerLost = errWorkerLost{}

type errWorkerLost struct{}

func (errWorkerLost) Error() string { return "dist: worker lost" }

// WorkerFailure is the error a stage attempt fails with when an injected (or,
// in a real deployment, observed) fault kills a worker. The engine's execute
// path recovers from it: the dead worker's blocks are re-partitioned across
// survivors, the recovery shuffle is charged to the stage, and the stage is
// retried with capped exponential backoff.
type WorkerFailure struct {
	// Worker is the index of the dead worker.
	Worker int
	// Stage is the stage the failure surfaced in.
	Stage int
	// Attempt is the execution attempt that failed (0-based).
	Attempt int
	// Kind is the fault that caused the failure.
	Kind FaultKind
}

// Error describes the failure.
func (f *WorkerFailure) Error() string {
	return fmt.Sprintf("dist: worker %d lost at stage %d attempt %d (%s)", f.Worker, f.Stage, f.Attempt, f.Kind)
}

// Unwrap makes every worker failure match errors.Is(err, ErrWorkerLost).
func (f *WorkerFailure) Unwrap() error { return ErrWorkerLost }

// BeginRun marks the start of one run, an execution of a whole plan: the
// stages up to the next BeginRun belong to it, and scripted events with a
// Run index fire only in that run.
func (c *Cluster) BeginRun() {
	c.faultMu.Lock()
	c.run++
	c.faultMu.Unlock()
}

// BeginStage marks the start of one execution attempt of a stage and injects
// the faults the configured plan scripts for it. Delay faults are charged
// (through ctx, see charge) as stalled time; a boundary kill is returned as a
// *WorkerFailure; a task kill is armed and surfaces from one of the stage's
// operators (or at the stage's end if no operator consumed it); a corruption
// is armed and fires at the stage's next block hand-off (unconsumed
// corruptions are disarmed at the next BeginStage — a stage that moves no
// blocks gives a bit-flip nothing to damage). An invalid fault plan
// (FaultPlan.Validate) fails here with its descriptive error. Scripted
// events of another run, faults naming dead workers, and kills whose victim
// is the last survivor are ignored.
func (c *Cluster) BeginStage(ctx context.Context, stage, attempt int) error {
	if c.faultErr != nil {
		return c.faultErr
	}
	c.curAttempt.Store(int64(attempt))
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	c.pending = nil
	c.corrupt = nil
	c.netArmed = nil
	var boundary *WorkerFailure
	for _, ev := range c.cfg.Faults.eventsAt(stage, attempt, c.cfg.Workers) {
		if (ev.Run != 0 && ev.Run != c.run) || ev.Worker < 0 || ev.Worker >= c.cfg.Workers || c.dead[ev.Worker] {
			continue
		}
		switch ev.Kind {
		case FaultDelay:
			c.charge(ctx, Snapshot{StallSec: ev.DelaySec})
		case FaultKillBoundary:
			if boundary == nil && c.aliveLocked() > 1 {
				boundary = &WorkerFailure{Worker: ev.Worker, Stage: stage, Attempt: attempt, Kind: ev.Kind}
			}
		case FaultKillTask:
			if c.pending == nil && c.aliveLocked() > 1 {
				c.pending = &WorkerFailure{Worker: ev.Worker, Stage: stage, Attempt: attempt, Kind: ev.Kind}
			}
		case FaultCorrupt:
			c.corrupt = append(c.corrupt, ev)
		case FaultNetDrop, FaultNetDelay, FaultNetPartition:
			c.netArmed = append(c.netArmed, ev)
		}
	}
	if boundary != nil {
		c.pending = nil
		return boundary
	}
	return nil
}

// TakeFault consumes the armed task fault, if any. Cluster operators call it
// so a doomed stage attempt aborts at the first operator after the fault;
// the engine calls it once more at stage end so a fault is never lost even
// if the stage ran no fault-checked operator.
func (c *Cluster) TakeFault() *WorkerFailure {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	f := c.pending
	c.pending = nil
	return f
}

// takeCorrupt consumes the corruption faults armed for the current stage
// attempt.
func (c *Cluster) takeCorrupt() []FaultEvent {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	evs := c.corrupt
	c.corrupt = nil
	return evs
}

// victimBlock picks the block a corruption event damages: the first block
// (row-major over logical coordinates) placed on the event's worker, falling
// back to (0, 0) when the worker owns none (a broadcast replica, say).
func (c *Cluster) victimBlock(m *DistMatrix, worker int) (int, int) {
	for bi := 0; bi < m.BlockRows(); bi++ {
		for bj := 0; bj < m.BlockCols(); bj++ {
			if c.Owner(m, bi, bj) == worker {
				return bi, bj
			}
		}
	}
	return 0, 0
}

// verifyTransfer is the receiver-side integrity check of one block hand-off:
// every communication primitive calls it after charging its transfer, and any
// corruption fault armed for the stage fires here. The fault flips a byte in
// the in-transit encoding of one block sent by the event's worker — a copy;
// the sender's stored block stays pristine — and the receiver compares the
// copy's CRC32C against the sender's checksum. A mismatch quarantines the
// damaged copy (it is simply never installed) and re-fetches the block from
// its source, charging the repeat transfer to the network; results therefore
// stay bit-identical to a fault-free run while every corruption is detected
// and accounted (Snapshot CorruptionsInjected/CorruptionsDetected).
func (c *Cluster) verifyTransfer(ctx context.Context, m *DistMatrix, stage int, op commKind) {
	for _, ev := range c.takeCorrupt() {
		bi, bj := c.victimBlock(m, ev.Worker)
		blk := m.StoredBlock(bi, bj)
		enc := mio.EncodeBlock(blk)
		want := mio.BlockChecksum(blk)
		enc[len(enc)/2] ^= 0x04
		detected := mio.ChecksumBytes(enc) != want
		s := Snapshot{CorruptionsInjected: 1}
		if detected {
			s.CorruptionsDetected = 1
		}
		c.charge(ctx, s)
		c.Metrics().Counter("fault.corrupt.injected").Inc()
		if detected {
			c.Metrics().Counter("fault.corrupt.detected").Inc()
		}
		if !detected {
			// CRC32C detects every burst error shorter than 32 bits, so a
			// single flipped byte cannot get here; the branch guards future
			// multi-block damage models.
			continue
		}
		refetch := m.BlockBytes(bi, bj)
		c.comm(ctx, stage, commCorruptRefetch, refetch,
			obs.String("op", op.String()), obs.Int64("worker", int64(ev.Worker)),
			obs.Int64("block_row", int64(bi)), obs.Int64("block_col", int64(bj)))
	}
}

// ChargeRecovery records a lineage-recovery shuffle after the given worker
// died: the bytes are charged as ordinary communication, attributed
// separately as recovery cost, and — when observability is attached —
// surfaced as a "recovery" comm span (tagged with the stage) and fault
// counters.
func (c *Cluster) ChargeRecovery(ctx context.Context, stage, worker int, bytes int64) {
	c.comm(ctx, stage, commRecovery, bytes, obs.Int64("worker", int64(worker)))
	c.Metrics().Counter("fault.recovery.bytes").Add(bytes)
}

// KillWorker permanently removes a worker from the cluster. The last
// survivor cannot be killed; the return value reports whether the worker was
// actually removed. Subsequent block placement maps the dead worker's blocks
// onto survivors (see Owner), and broadcasts and driver collects are charged
// for the surviving workers only.
func (c *Cluster) KillWorker(w int) bool {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	if w < 0 || w >= c.cfg.Workers || c.dead[w] || c.aliveLocked() <= 1 {
		return false
	}
	if c.dead == nil {
		c.dead = make(map[int]bool)
	}
	c.dead[w] = true
	return true
}

func (c *Cluster) aliveLocked() int {
	return c.cfg.Workers - len(c.dead)
}

// DeadWorkers lists the killed workers in ascending order.
func (c *Cluster) DeadWorkers() []int {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	out := make([]int, 0, len(c.dead))
	for w := range c.dead {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// reassignIfDead maps a block owner onto a surviving worker: dead workers'
// blocks are spread deterministically across the alive set.
func (c *Cluster) reassignIfDead(w int) int {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	if !c.dead[w] {
		return w
	}
	alive := make([]int, 0, c.aliveLocked())
	for i := 0; i < c.cfg.Workers; i++ {
		if !c.dead[i] {
			alive = append(alive, i)
		}
	}
	return alive[w%len(alive)]
}
