package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// Transport is the data plane of the cluster's collectives: it moves the
// blocks one shuffle or broadcast hands between workers. The cluster keeps
// the cost model (NetStats model charges, comm spans, corruption
// verification) on its side of this interface, so both implementations are
// accounted identically; what differs is whether bytes actually travel.
//
//   - The in-process transport (the default) moves nothing: blocks live in
//     one shared address space and a hand-off is a pointer. It still walks
//     every block of the collective and observes the context between blocks,
//     so a canceled job stops mid-collective exactly like a wire transport
//     blocked on a send would.
//   - The TCP transport (internal/dist/transport) frames every block with a
//     length prefix and a CRC32C, streams it to worker processes, and
//     reports the measured wire bytes, which the cluster records alongside
//     the model (NetStats WireBytes) so traced comm events reconcile against
//     real traffic.
//
// Implementations return *PeerDown when a destination worker is unreachable
// or failed mid-transfer; the cluster converts it into the typed
// *WorkerFailure the engine's lineage recovery already handles.
type Transport interface {
	// Name identifies the transport in metrics and logs ("inproc", "tcp").
	Name() string
	// Scatter moves each transfer's block to its destination worker. op
	// names the collective for tracing ("partition", "cpmm-shuffle", ...).
	Scatter(ctx context.Context, op string, stage int, xfers []BlockXfer) (Wire, error)
	// Ring replicates the blocks onto every listed worker by ring
	// forwarding: the coordinator sends each block to the first hop, each
	// hop forwards to the next. hops is the ring order, ascending over
	// alive workers; a broadcast rings once per worker its blocks are sent
	// from and reuses hops' array between rings, so Ring keeps neither
	// argument past its return.
	Ring(ctx context.Context, op string, stage int, blocks []BlockXfer, hops []int) (Wire, error)
	// Collect gathers a small driver-side aggregate (8 bytes) from each
	// listed worker.
	Collect(ctx context.Context, stage int, workers []int) (Wire, error)
	// Close releases transport resources (connections, heartbeats). The
	// in-process transport has none.
	Close() error
}

// Wire is the measured traffic of one collective on the wire: payload and
// framing bytes actually written or relayed, and the frame count. The
// in-process transport always reports zero.
type Wire struct {
	Bytes  int64
	Frames int64
}

// add accumulates other into w.
func (w *Wire) add(other Wire) {
	w.Bytes += other.Bytes
	w.Frames += other.Frames
}

// BlockXfer is one block hand-off of a collective: the block (in its stored
// orientation — the receiver applies any pending transpose), its logical
// coordinates, the worker that holds what is sent (-1 where the collective
// names none: a block of a broadcast replica, which each of its holders has
// whole, and a repartition's) and the worker it goes to (-1 for a ring,
// which hands it to every hop).
type BlockXfer struct {
	Bi, Bj   int
	From, To int
	Block    matrix.Block
}

// PeerDown reports a transport peer that is unreachable or failed
// mid-transfer: the dial was refused after retries, the connection died, or
// heartbeats stopped being answered. The cluster converts it into a typed
// *WorkerFailure so lineage recovery and the checkpoint ladder fire exactly
// as they do for injected kills.
type PeerDown struct {
	// Worker is the cluster index of the dead peer.
	Worker int
	// Addr is the peer's dial address (empty for in-process peers).
	Addr string
	// Err is the underlying transport error.
	Err error
}

// Error describes the failure.
func (p *PeerDown) Error() string {
	if p.Addr != "" {
		return fmt.Sprintf("dist: worker %d (%s) down: %v", p.Worker, p.Addr, p.Err)
	}
	return fmt.Sprintf("dist: worker %d down: %v", p.Worker, p.Err)
}

// Unwrap exposes the underlying error.
func (p *PeerDown) Unwrap() error { return p.Err }

// inprocTransport is the default transport of the simulated cluster: blocks
// live in one shared Grid, so a hand-off moves nothing and measures zero
// wire bytes. It still iterates the collective's blocks and observes the
// context between them, which is what lets a canceled job abort
// mid-collective instead of finishing the stage.
type inprocTransport struct{}

func (inprocTransport) Name() string { return "inproc" }

// walk observes ctx once per block, the cancellation granularity a wire
// transport gets for free from its per-frame deadlines.
func (inprocTransport) walk(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (t inprocTransport) Scatter(ctx context.Context, op string, stage int, xfers []BlockXfer) (Wire, error) {
	return Wire{}, t.walk(ctx, len(xfers))
}

func (t inprocTransport) Ring(ctx context.Context, op string, stage int, blocks []BlockXfer, hops []int) (Wire, error) {
	return Wire{}, t.walk(ctx, len(blocks)*len(hops))
}

func (t inprocTransport) Collect(ctx context.Context, stage int, workers []int) (Wire, error) {
	return Wire{}, t.walk(ctx, len(workers))
}

func (inprocTransport) Close() error { return nil }

// SetTransport installs the cluster's data plane (nil restores the default
// in-process transport). When the configured fault plan injects network
// faults, the transport is additionally wrapped in the fault-injecting
// transport, so drops, delays and partitions exercise the in-process and
// TCP paths identically. Observers attached to the cluster are forwarded to
// transports that accept them.
func (c *Cluster) SetTransport(t Transport) {
	if t == nil {
		t = inprocTransport{}
	}
	c.base = t
	if o, ok := t.(interface {
		SetObserver(*obs.Tracer, *obs.Registry)
	}); ok {
		o.SetObserver(c.tracer.Load(), c.Metrics())
	}
	if c.cfg.Faults.injectsNet() {
		t = &netFaultTransport{inner: t, c: c}
	}
	c.transport = t
}

// TransportName names the underlying transport ("inproc", "tcp"),
// unwrapping the fault injector.
func (c *Cluster) TransportName() string { return c.base.Name() }

// Close releases the cluster's transport (connections, heartbeat loops).
// Safe to call on a cluster using the in-process transport.
func (c *Cluster) Close() error { return c.base.Close() }

// aliveList appends the alive workers to dst in ascending order — the ring
// order of broadcasts and the destination set of collects.
func (c *Cluster) aliveList(dst []int) []int {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	for w := 0; w < c.cfg.Workers; w++ {
		if !c.dead[w] {
			dst = append(dst, w)
		}
	}
	return dst
}

// moves is the scratch of one collective: its move list and the worker lists
// it is built from. Collectives take one from movesFree and give it back
// when the transport has returned (no transport keeps a move list past its
// call), so a steady run builds its move lists without allocating.
type moves struct {
	xfers      []BlockXfer
	recv, held []int
}

var movesFree = sync.Pool{New: func() any { return new(moves) }}

func takeMoves() *moves { return movesFree.Get().(*moves) }

// release empties mv, dropping its references to blocks, and returns it to
// movesFree.
func (mv *moves) release() {
	clear(mv.xfers)
	mv.xfers, mv.recv, mv.held = mv.xfers[:0], mv.recv[:0], mv.held[:0]
	movesFree.Put(mv)
}

// collective runs one collective in the operator's turn: send hands its
// move list to the transport, and bytes, the list's charge, is booked as one
// comm event of kind k, after which the receivers verify the blocks of m
// they got (nil for a collect, which moves none). A scatter or a collect
// that moves nothing still makes its one transport call, which the network
// fault injector judges like any other; a broadcast rings once per sender,
// so not at all.
func (c *Cluster) collective(ctx context.Context, stage int, k commKind, bytes int64, m *DistMatrix, send func() (Wire, error), attrs ...obs.Attr) error {
	if err := collectiveTurn(ctx); err != nil {
		return err
	}
	sent := time.Now()
	wire, err := send()
	wireS := time.Since(sent).Seconds()
	if err := c.commFailure(err, stage); err != nil {
		return err
	}
	c.comm(ctx, stage, k, bytes, attrs...)
	if m != nil {
		c.verifyTransfer(ctx, m, stage, k)
	}
	c.chargeWire(ctx, stage, k, wire, wireS)
	return nil
}

// scatterXfers lists in mv the block hand-offs that place m's blocks on their
// owners under m's scheme, the move list of a repartition or a shuffled
// transpose. Both send every block and name no sender: the owner rule would
// find a hash-placed block in place only by its nominal placement, and
// erase the repartition SystemML-S pays for.
func (c *Cluster) scatterXfers(mv *moves, m *DistMatrix) []BlockXfer {
	br, bc := m.BlockRows(), m.BlockCols()
	out := mv.xfers
	for bi := 0; bi < br; bi++ {
		for bj := 0; bj < bc; bj++ {
			out = append(out, BlockXfer{Bi: bi, Bj: bj, From: -1, To: c.Owner(m, bi, bj), Block: m.StoredBlock(bi, bj)})
		}
	}
	mv.xfers = out
	return out
}

// chargeWire records measured wire traffic alongside the model: a charge of
// the wire totals, a "net" trace event, and the net.* labeled metric families.
// seconds is the wall time of the transport call that moved it, so a trace
// tells a slow scatter from a slow ring. The in-process transport reports
// zero and charges nothing, so modelled accounting stays byte-for-byte what
// it was before transports existed.
func (c *Cluster) chargeWire(ctx context.Context, stage int, k commKind, w Wire, seconds float64) {
	if w.Bytes == 0 && w.Frames == 0 {
		return
	}
	c.charge(ctx, Snapshot{WireBytes: w.Bytes, WireFrames: w.Frames})
	if tr := c.tracer.Load(); tr.Enabled() {
		tr.Event("net", k.String(), tr.Parent(ctx),
			obs.Int64("stage", int64(stage)),
			obs.Int64("wire_bytes", w.Bytes),
			obs.Int64("frames", w.Frames),
			obs.Float64("wire_s", seconds))
	}
	if m := c.metrics.Load(); m != nil {
		km := m.wire[k].Get(func() *kindMetrics {
			op := k.String()
			return &kindMetrics{
				m.reg.CounterVec("net.wire.frames", "op").With(op),
				m.reg.CounterVec("net.wire.bytes", "op").With(op),
				m.reg.HistogramVec("net.wire.seconds", obs.SecondsBuckets, "op").With(op),
			}
		})
		km.count.Add(w.Frames)
		km.bytes.Add(w.Bytes)
		km.hist.Observe(seconds)
	}
}

// commFailure classifies a transport error: a dead peer becomes the typed
// *WorkerFailure the engine's recovery path handles (stage retried, worker
// removed, blocks re-partitioned from lineage); context errors and
// already-typed failures pass through unchanged.
func (c *Cluster) commFailure(err error, stage int) error {
	if err == nil {
		return nil
	}
	var wf *WorkerFailure
	if errors.As(err, &wf) {
		return err
	}
	var pd *PeerDown
	if errors.As(err, &pd) {
		c.Metrics().Counter("net.peer.down").Inc()
		return &WorkerFailure{
			Worker:  pd.Worker,
			Stage:   stage,
			Attempt: int(c.curAttempt.Load()),
			Kind:    FaultNetPartition,
		}
	}
	return err
}
