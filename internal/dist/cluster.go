// Package dist is DMac's distributed runtime substrate. The paper runs on a
// Spark cluster; this package provides the equivalent in-process runtime: a
// cluster of N logical workers whose local computation runs in parallel on
// the block executor, and whose network is an instrumented accounting layer
// that records every byte a shuffle or broadcast would move. Execution time
// is modelled as local compute (estimated from the arithmetic actually
// performed, divided across workers and threads) plus network transfer time
// (bytes over a configured bandwidth, plus a per-shuffle latency). The model
// is deterministic, which is what the reproduction of the paper's figures
// needs; wall-clock time of the real computation is measured separately by
// the engine.
package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dmac/internal/cost"
	"dmac/internal/obs"
	"dmac/internal/sched"
)

// Config describes the simulated cluster.
type Config struct {
	// Workers is the number of cluster nodes (N / K in the paper).
	Workers int
	// LocalParallelism is the number of threads per worker (L).
	LocalParallelism int
	// Rates turn the arithmetic performed and the bytes moved into modelled
	// time. Unset rates take cost.Production's.
	cost.Rates
	// Stragglers injects slow workers: worker index -> slowdown factor
	// (>= 1). Because stages are un-interleaved (Section 5.2), a stage
	// finishes only when its slowest worker does, so the modelled compute
	// time of every stage is multiplied by the largest slowdown. Used by
	// the failure-injection tests and the straggler ablation.
	Stragglers map[int]float64
	// Faults deterministically kills or delays workers at stage boundaries
	// or block tasks (seeded, reproducible). The engine recovers via
	// stage-level retry and lineage-based recomputation; see FaultPlan.
	Faults FaultPlan
	// MaxStageRetries caps how many times a stage is retried after worker
	// failures before the run fails. Defaults to Workers + 2, enough to
	// lose every expendable worker one retry at a time.
	MaxStageRetries int
	// WorkerAddrs lists the TCP addresses of external worker processes
	// (dmacworker). Empty (the default) keeps the cluster fully in-process.
	// Non-empty, it fixes Workers to len(WorkerAddrs) and makes the engine
	// install the TCP transport, so every shuffle and broadcast moves real
	// framed bytes to those processes alongside the cost model.
	WorkerAddrs []string
	// DialTimeoutSec bounds one TCP dial attempt to a worker (dials are
	// additionally retried with jittered backoff). Defaults to 2 s.
	DialTimeoutSec float64
	// IOTimeoutSec bounds each frame read/write on a worker connection; the
	// run context's deadline tightens it further when sooner. Defaults to
	// 10 s.
	IOTimeoutSec float64
	// HeartbeatIntervalSec is the period of the transport's liveness probe
	// per worker. Defaults to 1 s.
	HeartbeatIntervalSec float64
	// HeartbeatMisses is how many consecutive unanswered heartbeats declare
	// a worker dead (surfaced as a *WorkerFailure, recovered like any
	// injected kill). Defaults to 3.
	HeartbeatMisses int
}

// MaxSlowdown returns the largest injected slowdown (at least 1).
func (c Config) MaxSlowdown() float64 {
	m := 1.0
	for w, s := range c.Stragglers {
		if w >= 0 && w < c.Workers && s > m {
			m = s
		}
	}
	return m
}

func (c Config) withDefaults() Config {
	if len(c.WorkerAddrs) > 0 {
		c.Workers = len(c.WorkerAddrs)
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.LocalParallelism <= 0 {
		c.LocalParallelism = 8
	}
	c.Rates = c.Rates.Or(cost.Production())
	if c.MaxStageRetries <= 0 {
		c.MaxStageRetries = c.Workers + 2
	}
	if c.DialTimeoutSec <= 0 {
		c.DialTimeoutSec = 2.0
	}
	if c.IOTimeoutSec <= 0 {
		c.IOTimeoutSec = 10.0
	}
	if c.HeartbeatIntervalSec <= 0 {
		c.HeartbeatIntervalSec = 1.0
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	return c
}

// ScaledConfig returns a configuration for reduced-scale reproductions of
// the paper's experiments: the given shape under cost.Scaled's rates. Use the
// same configuration for every engine being compared.
func ScaledConfig(workers, localParallelism int) Config {
	return Config{Workers: workers, LocalParallelism: localParallelism, Rates: cost.Scaled()}
}

// Cluster is a simulated cluster: local parallel execution plus an
// instrumented network, and — when a FaultPlan is configured — a fault
// injector tracking which workers have been lost.
type Cluster struct {
	cfg  Config
	exec *sched.Executor
	net  *NetStats

	// tracer and metrics observe the cluster when set (see SetObserver):
	// every shuffle/broadcast emits a "comm" span carrying its byte count,
	// and the registry accumulates per-kind event counters and byte
	// histograms. Atomic so enabling observability never races with a run.
	tracer  atomic.Pointer[obs.Tracer]
	metrics atomic.Pointer[obs.Registry]
	// curAttempt is the execution attempt of the current stage (set by
	// BeginStage), used to attribute transport failures and gate
	// first-attempt network faults.
	curAttempt atomic.Int64

	// transport is the active data plane of the collectives (the fault
	// wrapper when the plan injects network faults); base is the transport
	// underneath the wrapper. Set by SetTransport; defaults to in-process.
	transport Transport
	base      Transport

	// faultMu guards the fault-injection state below.
	faultMu sync.Mutex
	// dead is the set of permanently lost workers.
	dead map[int]bool
	// run counts BeginRun calls: the 1-based index of the current run.
	run int
	// pending is an armed task-kill fault waiting to surface from the next
	// cluster operator of the current stage attempt.
	pending *WorkerFailure
	// corrupt holds the armed corruption faults of the current stage attempt,
	// consumed (one per event) at the stage's block hand-offs.
	corrupt []FaultEvent
	// netArmed holds the scripted network faults of the current stage
	// attempt, read (not consumed — a stage may run several collectives) by
	// the fault-injecting transport wrapper.
	netArmed []FaultEvent
	// faultErr is the verdict of validating cfg.Faults at construction; a
	// non-nil verdict fails the first BeginStage with a descriptive error.
	faultErr error
}

// NewCluster creates a cluster from the configuration (zero fields take
// defaults). An invalid fault plan does not fail construction — the verdict
// is recorded and surfaces from the first BeginStage, so plan mistakes abort
// the run with FaultPlan.Validate's error instead of silently injecting
// nothing.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		exec:     sched.NewExecutor(cfg.Workers*cfg.LocalParallelism, nil),
		net:      &NetStats{},
		faultErr: cfg.Faults.ValidateFor(cfg.Workers),
	}
	c.SetTransport(nil)
	return c
}

// Workers returns the number of simulated workers.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// whole is the one-worker rule: on a cluster of one worker every matrix is
// whole on that worker, so hash-placed operands need no alignment and an
// aggregate needs no driver collect.
func (c *Cluster) whole() bool { return c.cfg.Workers == 1 }

// LocalParallelism returns the threads per worker.
func (c *Cluster) LocalParallelism() int { return c.cfg.LocalParallelism }

// Executor exposes the cluster-wide block executor (used by the engine for
// local execution inside stages).
func (c *Cluster) Executor() *sched.Executor { return c.exec }

// Net returns the network statistics accumulated so far.
func (c *Cluster) Net() *NetStats { return c.net }

// SetObserver attaches a span tracer and a metrics registry to the cluster
// and its local executor. Either may be nil to disable that half. With a
// tracer attached, every communication primitive emits one "comm" span
// (zero-duration, parented under the tracer's current scope) whose "bytes"
// attribute is exactly what the instrumented network charged — summing them
// reproduces NetStats.Bytes.
func (c *Cluster) SetObserver(t *obs.Tracer, m *obs.Registry) {
	c.tracer.Store(t)
	c.metrics.Store(m)
	c.exec.SetObserver(t, m)
	if o, ok := c.base.(interface {
		SetObserver(*obs.Tracer, *obs.Registry)
	}); ok {
		o.SetObserver(t, m)
	}
}

// Tracer returns the attached tracer (nil when tracing is off; a nil tracer
// is a valid no-op receiver).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer.Load() }

// Metrics returns the attached metrics registry (nil when metrics are off).
func (c *Cluster) Metrics() *obs.Registry { return c.metrics.Load() }

// traceComm records one communication event in the tracer and the metrics
// registry: a zero-duration "comm" span with the exact charged bytes, under
// the span ctx carries, a per-kind event counter, and byte histograms. It
// must be called by every code path that charges communication to NetStats,
// with the same byte count, so trace totals and network totals agree
// exactly.
func (c *Cluster) traceComm(ctx context.Context, stage int, name string, bytes int64, attrs ...obs.Attr) {
	if tr := c.tracer.Load(); tr.Enabled() {
		all := append(make([]obs.Attr, 0, 2+len(attrs)), obs.Int64("stage", int64(stage)), obs.Int64("bytes", bytes))
		tr.Event("comm", name, tr.Parent(ctx), append(all, attrs...)...)
	}
	if m := c.metrics.Load(); m != nil {
		m.Counter("comm." + name + ".events").Inc()
		m.Counter("comm." + name + ".bytes").Add(bytes)
		m.Histogram("comm."+name+".bytes.hist", obs.BytesBuckets).Observe(float64(bytes))
	}
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NetStats accumulates communication and compute statistics as run-wide
// totals; the engine attributes them to stages by differencing snapshots
// around each stage's work. All methods are safe for concurrent use.
type NetStats struct {
	mu            sync.Mutex
	bytes         int64
	commEvents    int
	broadcasts    int
	shuffles      int
	flops         float64
	recoveryBytes int64
	retries       int
	stallSec      float64
	corruptInj    int
	corruptDet    int
	wireBytes     int64
	wireFrames    int64
	netDrops      int
	netDelays     int
}

// Snapshot is a point-in-time copy of the statistics.
type Snapshot struct {
	// Bytes is the total data moved across workers (recovery included).
	Bytes int64
	// CommEvents counts shuffle/broadcast operations.
	CommEvents int
	// Broadcasts counts replication events (Broadcast dependency
	// satisfactions); Shuffles counts every other communication event
	// (repartitions, CPMM aggregations, shuffle transposes, driver
	// collects, recovery shuffles). Broadcasts + Shuffles == CommEvents.
	Broadcasts int
	Shuffles   int
	// FLOPs is the estimated arithmetic performed.
	FLOPs float64
	// RecoveryBytes is the share of Bytes moved to re-partition dead
	// workers' blocks across survivors after failures.
	RecoveryBytes int64
	// Retries counts stage attempts repeated after worker failures.
	Retries int
	// StallSec is modelled stalled time: injected delays plus retry
	// backoff.
	StallSec float64
	// CorruptionsInjected counts block corruptions the fault injector
	// actually fired (armed events whose stage moved at least one block);
	// CorruptionsDetected counts those caught by checksum verification at
	// block hand-off. Equality is the integrity invariant the chaos harness
	// asserts: every corruption that happens is detected.
	CorruptionsInjected int
	CorruptionsDetected int
	// WireBytes and WireFrames are the measured traffic the transport
	// actually put on the wire (payload plus framing), as opposed to Bytes,
	// which is the cost model's charge. Zero under the in-process transport;
	// over TCP, WireBytes reconciles with Bytes up to framing overhead and
	// retransmits.
	WireBytes  int64
	WireFrames int64
	// NetDropsInjected counts injected network drops (each healed by a
	// retransmit); NetDelaysInjected counts injected network delays (charged
	// as stall).
	NetDropsInjected  int
	NetDelaysInjected int
}

// addCommLocked is the shared body of the communication recorders.
func (n *NetStats) addCommLocked(bytes int64, broadcast bool) {
	n.bytes += bytes
	n.commEvents++
	if broadcast {
		n.broadcasts++
	} else {
		n.shuffles++
	}
}

// AddComm records a shuffle-style communication of the given bytes.
func (n *NetStats) AddComm(bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addCommLocked(bytes, false)
}

// AddBroadcast records a replication event of the given bytes. It counts
// toward CommEvents like any communication but is tallied separately, so
// strategy choices (broadcast vs repartition) are countable.
func (n *NetStats) AddBroadcast(bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addCommLocked(bytes, true)
}

// AddFLOPs records estimated arithmetic work.
func (n *NetStats) AddFLOPs(f float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flops += f
}

// AddRecovery records the recovery shuffle that re-partitions a dead
// worker's blocks across survivors: the bytes count as ordinary
// communication (one shuffle event), and are additionally attributed as
// recovery cost.
func (n *NetStats) AddRecovery(bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addCommLocked(bytes, false)
	n.recoveryBytes += bytes
}

// AddCorruption records one injected block corruption and whether the
// checksum verification at hand-off caught it.
func (n *NetStats) AddCorruption(detected bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.corruptInj++
	if detected {
		n.corruptDet++
	}
}

// AddRetry records one repeated stage attempt.
func (n *NetStats) AddRetry() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.retries++
}

// AddStall records modelled stalled seconds (injected delays, retry
// backoff).
func (n *NetStats) AddStall(sec float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stallSec += sec
}

// AddWire records measured transport traffic: bytes actually written to (or
// relayed on) the wire and the frames that carried them.
func (n *NetStats) AddWire(bytes, frames int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.wireBytes += bytes
	n.wireFrames += frames
}

// AddNetDrop records one injected network drop (healed by retransmit).
func (n *NetStats) AddNetDrop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.netDrops++
}

// AddNetDelay records one injected network delay.
func (n *NetStats) AddNetDelay() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.netDelays++
}

// Snapshot returns a copy of the accumulated statistics.
func (n *NetStats) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Snapshot{
		Bytes:               n.bytes,
		CommEvents:          n.commEvents,
		Broadcasts:          n.broadcasts,
		Shuffles:            n.shuffles,
		FLOPs:               n.flops,
		RecoveryBytes:       n.recoveryBytes,
		Retries:             n.retries,
		StallSec:            n.stallSec,
		CorruptionsInjected: n.corruptInj,
		CorruptionsDetected: n.corruptDet,
		WireBytes:           n.wireBytes,
		WireFrames:          n.wireFrames,
		NetDropsInjected:    n.netDrops,
		NetDelaysInjected:   n.netDelays,
	}
}

// Reset clears the statistics.
func (n *NetStats) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.bytes, n.commEvents, n.flops = 0, 0, 0
	n.broadcasts, n.shuffles = 0, 0
	n.recoveryBytes, n.retries, n.stallSec = 0, 0, 0
	n.corruptInj, n.corruptDet = 0, 0
	n.wireBytes, n.wireFrames, n.netDrops, n.netDelays = 0, 0, 0, 0
}

// String summarizes the statistics.
func (n *NetStats) String() string {
	s := n.Snapshot()
	return fmt.Sprintf("net: %d bytes in %d comm ops, %.3g flops", s.Bytes, s.CommEvents, s.FLOPs)
}
