// Package dmac is a distributed matrix computation library that exploits
// matrix dependencies to minimize communication, reproducing the DMac system
// of Yu, Shao and Cui, "Exploiting Matrix Dependency for Efficient
// Distributed Matrix Computation" (SIGMOD 2015).
//
// A matrix program is written with an R-like builder (Program), planned by a
// dependency-aware optimizer that picks the communication-minimal execution
// strategy per operator (RMM1/RMM2/CPMM for multiplication, aligned schemes
// for cell-wise operators), and executed on a simulated cluster of workers
// whose network traffic is accounted byte-for-byte. Sessions keep variables
// — and their partition schemes — across program executions, so iterative
// algorithms reuse data without repartitioning.
//
// Quick start:
//
//	s := dmac.NewSession(dmac.PlannerDMac, dmac.ClusterConfig{Workers: 4}, 0)
//	bs := s.BlockSizeFor(1000, 500, 0.01) // Eq. 3 on this cluster
//	v := dmac.SparseUniform(1, 1000, 500, bs, 0.01)
//	s.Bind("V", v)
//	p := dmac.NewProgram()
//	V := p.Var("V", 1000, 500, 0.01)
//	p.Assign("G", p.Mul(V.T(), V))   // Gram matrix
//	metrics, err := s.Run(p, nil)
//	...
//
// The package re-exports the user-facing pieces of the internal packages;
// applications (GNMF, PageRank, linear regression, collaborative filtering,
// SVD) and dataset generators are available directly.
package dmac

import (
	"dmac/internal/apps"
	"dmac/internal/core"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// Core user-facing types, re-exported from the implementation packages.
type (
	// Program is a matrix program under construction (R-like builder).
	Program = expr.Program
	// Ref references a program value, possibly transposed (Ref.T).
	Ref = expr.Ref
	// Grid is a block-partitioned matrix.
	Grid = matrix.Grid
	// Coord is a sparse matrix entry used to build grids.
	Coord = matrix.Coord
	// Session runs programs and keeps variables (and their schemes) between
	// runs.
	Session = engine.Engine
	// Planner selects the planning mode of a session.
	Planner = engine.Planner
	// ClusterConfig describes the simulated cluster.
	ClusterConfig = dist.Config
	// Metrics reports the cost of one program execution: what it charged
	// (m.CommBytes, m.CommEvents, m.FLOPs, m.Retries, m.StallSec, … —
	// promoted from the one charge record it embeds), priced as
	// m.ModelSeconds, beside the measured wall time and checkpoint work,
	// and the same charge record per stage in m.PerStage.
	Metrics = engine.Metrics
	// Plan is an executable plan (for explain-style inspection).
	Plan = core.Plan
	// Scheme is a matrix distribution scheme (Row/Col/Broadcast).
	Scheme = dep.Scheme
	// AppResult collects per-iteration metrics of a bundled application.
	AppResult = apps.Result
	// GraphSpec describes a Table 3 dataset stand-in.
	GraphSpec = workload.GraphSpec
	// UFunc is a named element-wise function for Program.Func.
	UFunc = matrix.UFunc
	// FaultPlan deterministically injects worker faults into a session's
	// cluster (set ClusterConfig.Faults); the runtime recovers via stage
	// retry and lineage recomputation — or, with Session.SetCheckpoint, by
	// restoring the newest valid snapshot. Validate rejects malformed plans.
	FaultPlan = dist.FaultPlan
	// FaultEvent is one scripted fault of a FaultPlan.
	FaultEvent = dist.FaultEvent
	// FaultKind discriminates kill, delay and corruption faults.
	FaultKind = dist.FaultKind
	// CheckpointPolicy decides when a session snapshots its live values
	// (Session.SetCheckpoint): a fixed stage interval, a cost-model trigger,
	// or both.
	CheckpointPolicy = engine.CheckpointPolicy
	// WorkerFailure is the error a stage attempt fails with when a worker is
	// lost (recovered internally; visible only when retries are exhausted).
	WorkerFailure = dist.WorkerFailure
	// Tracer records execution spans when attached to a session with
	// Session.SetObserver; a nil Tracer is a valid no-op.
	Tracer = obs.Tracer
	// MetricsRegistry collects counters, gauges and histograms when attached
	// to a session with Session.SetObserver; nil is a valid no-op.
	MetricsRegistry = obs.Registry
	// TraceSpan is one recorded span of a Tracer.
	TraceSpan = obs.Span
)

// Rewriter is the algebraic rewrite pass a session runs before planning
// (chain reordering, transpose pushdown, identity folding, sparsity
// refinement); attach with Session.SetRewriter.
type Rewriter = rewrite.Rewriter

// RewriterConfig selectively disables individual rewrite rules (see
// NewRewriterWithConfig); the zero value enables everything.
type RewriterConfig = rewrite.Config

// NewRewriter returns a rewriter with every rule enabled for
// Session.SetRewriter.
func NewRewriter() *Rewriter { return rewrite.New() }

// NewRewriterWithConfig returns a rewriter with the configured rules
// disabled.
func NewRewriterWithConfig(cfg RewriterConfig) *Rewriter { return rewrite.NewWithConfig(cfg) }

// NewTracer returns an enabled execution tracer for Session.SetObserver.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry for
// Session.SetObserver.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Trace exporters (see internal/obs): WriteChromeTrace emits chrome://tracing
// JSON, WriteTimeline prints the human-readable per-stage report,
// WriteMetricsJSON dumps a registry snapshot, WritePrometheus renders one in
// Prometheus text exposition format (what dmacserve serves at /metrics).
var (
	WriteChromeTrace = obs.WriteChromeTrace
	WriteTimeline    = obs.WriteTimeline
	WriteMetricsJSON = obs.WriteMetricsJSON
	WritePrometheus  = obs.WritePrometheus
)

// Planner modes.
const (
	// PlannerDMac plans with matrix-dependency analysis (the paper's
	// system).
	PlannerDMac = engine.DMac
	// PlannerSystemMLS is the dependency-oblivious baseline.
	PlannerSystemMLS = engine.SystemMLS
	// PlannerLocal runs single-machine and in-memory (the "R" reference).
	PlannerLocal = engine.Local
)

// Partition schemes.
const (
	Row       = dep.Row
	Col       = dep.Col
	Broadcast = dep.Broadcast
)

// Fault kinds for FaultEvent.
const (
	// FaultKillBoundary kills a worker at a stage boundary.
	FaultKillBoundary = dist.FaultKillBoundary
	// FaultKillTask kills a worker while a stage's block tasks run.
	FaultKillTask = dist.FaultKillTask
	// FaultDelay stalls a stage without losing data.
	FaultDelay = dist.FaultDelay
	// FaultCorrupt flips bytes in a block in transit at the stage's first
	// hand-off; the checksum at hand-off detects, quarantines and re-fetches
	// it (counted in Metrics.CorruptionsInjected/Detected).
	FaultCorrupt = dist.FaultCorrupt
	// FaultNetDrop loses one worker's blocks of a collective once; the
	// transport retransmits them (real repeated bytes on the TCP data plane)
	// and the run is charged one retransmit round-trip of stall.
	FaultNetDrop = dist.FaultNetDrop
	// FaultNetDelay stalls a stage's first collective by DelaySec without
	// losing data.
	FaultNetDelay = dist.FaultNetDelay
	// FaultNetPartition cuts a worker off: the first collective that must
	// reach it fails with a *WorkerFailure and lineage recovery removes the
	// worker, exactly as for a kill.
	FaultNetPartition = dist.FaultNetPartition
)

// ErrWorkerLost classifies every lost-worker failure — injected kills,
// network partitions, and heartbeat-detected deaths on the TCP transport —
// via errors.Is, regardless of which layer detected the loss.
var ErrWorkerLost = dist.ErrWorkerLost

// RandomFaultPlan returns a seeded fault plan that kills each (stage,
// worker) pair with the given probability — the same seed always kills the
// same workers at the same stages.
func RandomFaultPlan(seed int64, rate float64) FaultPlan {
	return dist.RandomFaultPlan(seed, rate)
}

// Element-wise functions for Program.Func.
const (
	FuncSigmoid = matrix.FuncSigmoid
	FuncExp     = matrix.FuncExp
	FuncLog     = matrix.FuncLog
	FuncSqrt    = matrix.FuncSqrt
	FuncAbs     = matrix.FuncAbs
	FuncSign    = matrix.FuncSign
)

// Cell-wise and scalar operators for Program.Scalar/ScalarParam.
const (
	ScalarMul  = matrix.ScalarMul
	ScalarAdd  = matrix.ScalarAdd
	ScalarSub  = matrix.ScalarSub
	ScalarDiv  = matrix.ScalarDiv
	ScalarRSub = matrix.ScalarRSub
	ScalarRDiv = matrix.ScalarRDiv
)

// NewSession creates a session with the given planner over a simulated
// cluster. blockSize is the session's block side until the first bind sets
// its data's; Session.BlockSizeFor picks the side to cut data at.
func NewSession(p Planner, cfg ClusterConfig, blockSize int) *Session {
	return engine.New(p, cfg, blockSize)
}

// ScaledConfig returns a cluster configuration whose time-model constants
// are calibrated for reduced-scale reproductions of the paper's experiments
// (the benchmark harness uses exactly this). Use the same configuration for
// every engine being compared.
func ScaledConfig(workers, localParallelism int) ClusterConfig {
	return dist.ScaledConfig(workers, localParallelism)
}

// NewProgram returns an empty matrix program.
func NewProgram() *Program { return expr.NewProgram() }

// FromDense builds a grid from a row-major slice.
func FromDense(rows, cols, blockSize int, data []float64) *Grid {
	return matrix.FromDense(rows, cols, blockSize, data)
}

// FromCoords builds a sparse grid from coordinates.
func FromCoords(rows, cols, blockSize int, coords []Coord) *Grid {
	return matrix.FromCoords(rows, cols, blockSize, coords)
}

// Dataset generators (deterministic; see internal/workload).
var (
	// SparseUniform generates a random sparse matrix with the given
	// sparsity.
	SparseUniform = workload.SparseUniform
	// DenseRandom generates a dense positive random matrix.
	DenseRandom = workload.DenseRandom
	// Ratings generates a Netflix-shaped integer ratings matrix.
	Ratings = workload.Ratings
	// PowerLawGraph generates a directed graph with power-law out-degrees.
	PowerLawGraph = workload.PowerLawGraph
	// RowNormalize turns an adjacency matrix into a PageRank link matrix.
	RowNormalize = workload.RowNormalize
	// GraphByName looks up a Table 3 dataset stand-in.
	GraphByName = workload.GraphByName
)

// Graphs lists the Table 3 dataset stand-ins.
var Graphs = workload.Graphs

// Netflix is the Netflix dataset stand-in recipe.
var Netflix = workload.Netflix

// Bundled applications (Appendix A of the paper). Each runs on any session
// planner, which is how the comparative experiments are driven.
var (
	// GNMF is Gaussian non-negative matrix factorization (Code 1).
	GNMF = apps.GNMF
	// PageRank is the link-analysis iteration of Code 2.
	PageRank = apps.PageRank
	// LinReg is conjugate-gradient linear regression (Code 4).
	LinReg = apps.LinReg
	// CF is item-based collaborative filtering (Code 3).
	CF = apps.CF
	// SVD approximates singular values with the Lanczos algorithm (Code 5).
	SVD = apps.SVD
	// LogReg trains logistic regression by gradient descent (extension;
	// exercises the element-wise function operator).
	LogReg = apps.LogReg
	// LabeledData generates a separable binary classification problem for
	// LogReg.
	LabeledData = apps.LabeledData
	// TriangleCount counts triangles via trace(A³)/6 (extension).
	TriangleCount = apps.TriangleCount
	// Symmetrize converts a directed adjacency matrix into an undirected
	// simple-graph adjacency for TriangleCount.
	Symmetrize = apps.Symmetrize
)
