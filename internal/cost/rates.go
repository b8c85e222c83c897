// Package cost is the one cost vocabulary of the system: what a machine
// delivers per second (Rates), how work turns into modelled seconds, what
// each operator kind costs in floating-point operations, and how many bytes
// a matrix occupies. Every layer that prices work — the planner's |A|, the
// rewriter's chain DP, the cluster's and the local engine's charges, the
// kernel metrics, the checkpoint trigger, admission control, the baselines
// and the figure harness — calls these functions and holds no constant of
// its own, so calibrating the model is a change to this package alone.
//
// Two kinds of caller pass different element counts by design. The executing
// side charges what it measured: the stored elements of the operand it holds.
// The predicting side (rewriter, admission) has only a shape and a worst-case
// sparsity, and passes EstNNZ — at sparsity 1 where it assumes every cell stored.
package cost

// Rates is what the modelled machine delivers per second.
type Rates struct {
	// FlopsPerSecPerThread is the arithmetic throughput of one worker thread.
	FlopsPerSecPerThread float64
	// BandwidthBytesPerSec is the aggregate network bandwidth.
	BandwidthBytesPerSec float64
	// ShuffleLatencySec is the fixed cost per communication event (job and
	// stage setup in Spark terms).
	ShuffleLatencySec float64
}

// Production returns the rates of a full-scale deployment: 2 GFLOP/s per
// thread, 1 GiB/s of network, 50 ms per shuffle.
func Production() Rates {
	return Rates{FlopsPerSecPerThread: 2e9, BandwidthBytesPerSec: 1 << 30, ShuffleLatencySec: 0.05}
}

// Scaled returns the rates for reduced-scale reproductions of the paper's
// experiments. Scaled-down datasets shrink arithmetic much faster than fixed
// per-shuffle overheads, so with production rates every run would be pure
// latency; a deliberately slow core (50 MFLOP/s per thread) and a 0.1 ms
// shuffle setup restore the paper's full-scale compute/communication balance.
func Scaled() Rates {
	r := Production()
	r.FlopsPerSecPerThread, r.ShuffleLatencySec = 5e7, 1e-4
	return r
}

// Or returns r with every unset (non-positive) rate taken from d.
func (r Rates) Or(d Rates) Rates {
	or := func(v, d float64) float64 {
		if v > 0 {
			return v
		}
		return d
	}
	return Rates{
		FlopsPerSecPerThread: or(r.FlopsPerSecPerThread, d.FlopsPerSecPerThread),
		BandwidthBytesPerSec: or(r.BandwidthBytesPerSec, d.BandwidthBytesPerSec),
		ShuffleLatencySec:    or(r.ShuffleLatencySec, d.ShuffleLatencySec),
	}
}

// ComputeSec is the modelled time of flops of arithmetic spread over threads
// threads. Stages are un-interleaved (Section 5.2), so a stage finishes with
// its slowest worker: slowdown (>= 1) is the largest straggler factor.
func (r Rates) ComputeSec(flops float64, threads int, slowdown float64) float64 {
	return flops * slowdown / (float64(threads) * r.FlopsPerSecPerThread)
}

// NetworkSec is the modelled time of moving bytes in events communication
// operations: transfer over the bandwidth plus the fixed latency of each.
func (r Rates) NetworkSec(bytes int64, events int) float64 {
	return float64(bytes)/r.BandwidthBytesPerSec + float64(events)*r.ShuffleLatencySec
}

// WriteSec is the modelled time of writing bytes to checkpoint storage. The
// 200 MB/s is a constant of the model, not a rate a cluster configures.
func WriteSec(bytes int64) float64 { return float64(bytes) / 200e6 }
