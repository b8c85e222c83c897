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
	// framed bytes to those processes alongside the cost model. Its dial,
	// I/O and heartbeat timeouts are transport.Config's defaults; a caller
	// that needs others installs its own transport (Cluster.SetTransport).
	WorkerAddrs []string
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
	metrics atomic.Pointer[clusterMetrics]
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
// (zero-duration, parented under the span its context carries) whose "bytes"
// attribute is exactly what the instrumented network charged — summing them
// reproduces NetStats.CommBytes.
func (c *Cluster) SetObserver(t *obs.Tracer, m *obs.Registry) {
	c.tracer.Store(t)
	c.metrics.Store(&clusterMetrics{reg: m})
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

// Metrics returns the attached metrics registry (nil when metrics are off;
// a nil registry is a valid no-op receiver).
func (c *Cluster) Metrics() *obs.Registry {
	if m := c.metrics.Load(); m != nil {
		return m.reg
	}
	return nil
}

// commKind is one of the cluster's communication primitives: the name of
// its "comm" span, of its comm.<kind>.* metrics and, for the five that move
// blocks over a transport, the op label of its net.wire.* metrics.
type commKind uint8

const (
	commPartition commKind = iota
	commBroadcast
	commShuffleTranspose
	commCPMMShuffle
	commCollect
	commRecovery
	commCorruptRefetch
	numCommKinds
)

var commKindNames = [numCommKinds]string{
	"partition", "broadcast", "shuffle-transpose", "cpmm-shuffle", "collect", "recovery", "corrupt-refetch",
}

func (k commKind) String() string { return commKindNames[k] }

// clusterMetrics holds the instruments of one attached registry: per comm
// kind, its comm.<kind>.* metrics and its children of the net.wire.*
// families, each set resolved on its first event (a kind that never happens
// exports nothing) and held after it; a nil registry's are nil, no-op metrics.
type clusterMetrics struct {
	reg        *obs.Registry
	comm, wire [numCommKinds]obs.Lazy[kindMetrics]
}

// kindMetrics are one comm kind's comm.<kind>.events, .bytes and
// .bytes.hist, or its net.wire.frames, .bytes and .seconds children.
type kindMetrics struct {
	count, bytes *obs.Counter
	hist         *obs.Histogram
}

// comm books one communication event of kind k: one charge holds its bytes,
// the event, its side of the broadcast/shuffle split and, for a recovery
// shuffle, the recovery share; traceComm records it with the same bytes, so
// trace totals and charged totals agree exactly. Every comm site calls it.
func (c *Cluster) comm(ctx context.Context, stage int, k commKind, bytes int64, attrs ...obs.Attr) {
	s := Snapshot{CommBytes: bytes, CommEvents: 1, Shuffles: 1}
	switch k {
	case commBroadcast:
		s.Broadcasts, s.Shuffles = 1, 0
	case commRecovery:
		s.RecoveryBytes = bytes
	}
	c.charge(ctx, s)
	c.traceComm(ctx, stage, k, bytes, attrs...)
}

// traceComm records one communication event in the tracer and the metrics
// registry: a zero-duration "comm" span with the exact charged bytes, under
// the span ctx carries, a per-kind event counter, and byte histograms.
func (c *Cluster) traceComm(ctx context.Context, stage int, k commKind, bytes int64, attrs ...obs.Attr) {
	if tr := c.tracer.Load(); tr.Enabled() {
		all := append(make([]obs.Attr, 0, 2+len(attrs)), obs.Int64("stage", int64(stage)), obs.Int64("bytes", bytes))
		tr.Event("comm", k.String(), tr.Parent(ctx), append(all, attrs...)...)
	}
	if m := c.metrics.Load(); m != nil {
		km := m.comm[k].Get(func() *kindMetrics {
			prefix := "comm." + k.String()
			events, total, hist := prefix+".events", prefix+".bytes", prefix+".bytes.hist"
			return &kindMetrics{m.reg.Counter(events), m.reg.Counter(total), m.reg.Histogram(hist, obs.BytesBuckets)}
		})
		km.count.Inc()
		km.bytes.Add(bytes)
		km.hist.Observe(float64(bytes))
	}
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NetStats accumulates communication and compute statistics as totals over
// the cluster's life: every charge made under no Charger (see charge), and
// each engine run's summed stage records once, when the run returns. All
// methods are safe for concurrent use.
type NetStats struct {
	mu sync.Mutex
	s  Snapshot
}

// Snapshot is the unit of charge: one cost the cluster books (a comm event,
// an operator's arithmetic, an injected stall), a stage's or a run's sum of
// them, or a point-in-time copy of the statistics.
type Snapshot struct {
	// CommBytes is the total data moved across workers (recovery included).
	CommBytes int64
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
	// RecoveryBytes is the share of CommBytes moved to re-partition dead
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
	// actually put on the wire (payload plus framing), as opposed to CommBytes,
	// which is the cost model's charge. Zero under the in-process transport;
	// over TCP, WireBytes reconciles with CommBytes up to framing overhead and
	// retransmits.
	WireBytes  int64
	WireFrames int64
	// NetDropsInjected counts injected network drops (each healed by a
	// retransmit); NetDelaysInjected counts injected network delays (charged
	// as stall).
	NetDropsInjected  int
	NetDelaysInjected int
}

// Add folds another record into s, field by field.
func (s *Snapshot) Add(o Snapshot) {
	s.CommBytes += o.CommBytes
	s.CommEvents += o.CommEvents
	s.Broadcasts += o.Broadcasts
	s.Shuffles += o.Shuffles
	s.FLOPs += o.FLOPs
	s.RecoveryBytes += o.RecoveryBytes
	s.Retries += o.Retries
	s.StallSec += o.StallSec
	s.CorruptionsInjected += o.CorruptionsInjected
	s.CorruptionsDetected += o.CorruptionsDetected
	s.WireBytes += o.WireBytes
	s.WireFrames += o.WireFrames
	s.NetDropsInjected += o.NetDropsInjected
	s.NetDelaysInjected += o.NetDelaysInjected
}

// Add books a charge. It is the one method that changes the statistics.
func (n *NetStats) Add(s Snapshot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.s.Add(s)
}

// Snapshot returns a copy of the accumulated statistics.
func (n *NetStats) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.s
}

// String summarizes the statistics.
func (n *NetStats) String() string {
	s := n.Snapshot()
	return fmt.Sprintf("net: %d bytes in %d comm ops, %.3g flops", s.CommBytes, s.CommEvents, s.FLOPs)
}
