package dist

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"dmac/internal/cost"
	"dmac/internal/dep"
	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// DistMatrix is a matrix distributed across the cluster: block data plus the
// scheme describing how the blocks are placed on workers. SchemeNone means
// hash placement (blocks scattered by hash of their coordinates — the layout
// fresh loads and SystemML-S outputs have).
//
// The simulation stores the blocks in a single shared Grid; placement is
// logical and drives only the communication accounting and task ownership.
type DistMatrix struct {
	Grid   *matrix.Grid
	Scheme dep.Scheme
	// trans marks a lazy transpose view: Grid holds the blocks in their
	// stored orientation and every logical accessor (Rows, Cols, Bytes,
	// Owner, ...) swaps dimensions. Views cost nothing to create; they are
	// fused into multiplication kernels (sched.MulTrans) or materialized on
	// demand by Cluster.MaterializedGrid for consumers that need the blocks
	// laid out logically.
	trans bool
	// reach lists, for a broadcast replica, the workers it was copied to by
	// nominal placement (see Holders), nil for every worker; Cluster.receivers
	// resolves them to their current owners.
	reach []int
}

// NewDistMatrix wraps a grid with a placement scheme.
func NewDistMatrix(g *matrix.Grid, scheme dep.Scheme) *DistMatrix {
	return &DistMatrix{Grid: g, Scheme: scheme}
}

// NewDistMatrixView wraps a grid like NewDistMatrix but additionally marks it
// a lazy transpose view. Checkpoint restore uses it to reconstruct a value
// exactly as it was snapshotted: the grid holds the stored orientation, trans
// records the pending logical transpose.
func NewDistMatrixView(g *matrix.Grid, scheme dep.Scheme, trans bool) *DistMatrix {
	return &DistMatrix{Grid: g, Scheme: scheme, trans: trans}
}

// Rows returns the logical row count.
func (m *DistMatrix) Rows() int {
	if m.trans {
		return m.Grid.Cols()
	}
	return m.Grid.Rows()
}

// Cols returns the logical column count.
func (m *DistMatrix) Cols() int {
	if m.trans {
		return m.Grid.Rows()
	}
	return m.Grid.Cols()
}

// Trans reports whether the matrix is an unmaterialized transpose view.
func (m *DistMatrix) Trans() bool { return m.trans }

// Reach returns the workers, by nominal placement, a broadcast replica was
// copied to, nil when it is everywhere (every matrix that is not a narrowed
// broadcast). The slice is the matrix's and must not be modified.
func (m *DistMatrix) Reach() []int { return m.reach }

// Bytes returns the actual block memory footprint, which is what the
// instrumented network charges for moving the matrix. For a transpose view
// this is the footprint the transposed blocks would have if materialized, so
// byte accounting is identical whether or not the view has been realized.
func (m *DistMatrix) Bytes() int64 {
	if m.trans {
		return m.Grid.TransMemBytes()
	}
	return m.Grid.MemBytes()
}

// String describes the matrix.
func (m *DistMatrix) String() string {
	return fmt.Sprintf("%dx%d(%s)", m.Rows(), m.Cols(), m.Scheme)
}

// BlockRows returns the logical block-row count.
func (m *DistMatrix) BlockRows() int {
	if m.trans {
		return m.Grid.BlockCols()
	}
	return m.Grid.BlockRows()
}

// BlockCols returns the logical block-column count.
func (m *DistMatrix) BlockCols() int {
	if m.trans {
		return m.Grid.BlockRows()
	}
	return m.Grid.BlockCols()
}

// StoredBlock returns the block at logical coordinates (bi, bj) in its
// stored orientation — what actually travels on the wire for a transpose
// view, whose receiver applies the orientation itself.
func (m *DistMatrix) StoredBlock(bi, bj int) matrix.Block {
	if m.trans {
		return m.Grid.Block(bj, bi)
	}
	return m.Grid.Block(bi, bj)
}

// BlockBytes returns the footprint of the block at logical coordinates
// (bi, bj), accounting transposed sparse blocks at their materialized size.
func (m *DistMatrix) BlockBytes(bi, bj int) int64 {
	if m.trans {
		return matrix.TransMemBytes(m.Grid.Block(bj, bi))
	}
	return m.Grid.Block(bi, bj).MemBytes()
}

// Owner returns the worker a block is placed on under the matrix's scheme:
// block-rows round-robin for Row, block-columns for Col, hash of the block
// coordinates for hash placement. Broadcast replicas live on every receiver
// (worker 0 is reported). Block coordinates are logical, so a transpose view
// places block (bi, bj) exactly where the materialized transpose would.
// Blocks whose nominal owner has been killed are deterministically
// re-assigned across the surviving workers.
func (c *Cluster) Owner(m *DistMatrix, bi, bj int) int {
	k := c.cfg.Workers
	var w int
	switch m.Scheme {
	case dep.Row:
		w = bi % k
	case dep.Col:
		w = bj % k
	case dep.Broadcast:
		w = 0
	default: // hash placement
		w = (bi*m.BlockCols() + bj) % k
	}
	return c.reassignIfDead(w)
}

// Holders returns, in ascending order, the workers a rows x cols matrix cut
// at blockSize places blocks on under a Row or Col scheme, by nominal
// placement: Owner's round-robin before dead workers' blocks are reassigned.
// A broadcast read only next to such a matrix needs to reach these workers.
func (c *Cluster) Holders(scheme dep.Scheme, rows, cols, blockSize int) ([]int, error) {
	var side int
	switch scheme {
	case dep.Row:
		side = rows
	case dep.Col:
		side = cols
	default:
		return nil, fmt.Errorf("dist: holders under scheme %s", scheme)
	}
	n := min((side+blockSize-1)/blockSize, c.cfg.Workers)
	out := make([]int, n)
	for w := range out {
		out[w] = w
	}
	return out, nil
}

// receivers returns, in ascending order, the alive workers holding a copy of
// the matrix: for a broadcast replica, the current owners of the workers it
// reaches (every alive worker for a full one); for any other matrix, every
// alive worker, which is where its reach of nil puts it.
func (c *Cluster) receivers(m *DistMatrix) []int {
	if m.reach == nil {
		return c.aliveList()
	}
	out := make([]int, 0, len(m.reach))
	for _, w := range m.reach {
		out = append(out, c.reassignIfDead(w))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// readsWithin is the receiver check of a narrowed broadcast b: every block of
// part, the matrix whose blocks b is read next to, must be owned by one of
// b's receivers. A reader placed outside them would read a copy that was
// never sent.
func (c *Cluster) readsWithin(b, part *DistMatrix) error {
	if b.reach == nil {
		return nil
	}
	to := c.receivers(b)
	for bi := 0; bi < part.BlockRows(); bi++ {
		for bj := 0; bj < part.BlockCols(); bj++ {
			if w := c.Owner(part, bi, bj); !slices.Contains(to, w) {
				return fmt.Errorf("dist: block (%d,%d) of a %s matrix is on worker %d, outside the broadcast's receivers %v",
					bi, bj, part.Scheme, w, to)
			}
		}
	}
	return nil
}

// WorkerBytes returns the bytes of the matrix's blocks placed on the given
// worker — the data lost (and re-fetched from lineage) when that worker
// dies. A full broadcast costs nothing to lose: every survivor already holds
// a copy. A narrowed one costs |A| when the worker was a receiver, the copy
// the survivor inheriting its blocks needs, and nothing otherwise; the
// survivor is a receiver from then on, since receivers resolves the reach
// under current liveness. That copy is re-fetched whole: Broadcast's owner
// rule, which spares a receiver the blocks it owns, does not apply to it.
func (c *Cluster) WorkerBytes(m *DistMatrix, w int) int64 {
	if m.Scheme == dep.Broadcast {
		if m.reach != nil && slices.Contains(c.receivers(m), w) {
			return m.Bytes()
		}
		return 0
	}
	var total int64
	for bi := 0; bi < m.BlockRows(); bi++ {
		for bj := 0; bj < m.BlockCols(); bj++ {
			if c.Owner(m, bi, bj) == w {
				total += m.BlockBytes(bi, bj)
			}
		}
	}
	return total
}

// MaterializedGrid returns the matrix's grid in its logical orientation,
// realizing a lazy transpose view in place on first use. The modelled FLOPs
// for the transpose were already charged when the view was created, so
// materialization itself adds no model cost.
func (c *Cluster) MaterializedGrid(m *DistMatrix) *matrix.Grid {
	if m.trans {
		m.Grid = c.exec.Transpose(context.Background(), m.Grid)
		m.trans = false
	}
	return m.Grid
}

// Partition repartitions the matrix to a Row or Col scheme, charging |A| to
// the network (the repartition shuffle of the partition extended operator).
// stage tags the transport frames and the comm span. The transport moves
// the blocks first — a canceled context or an unreachable worker aborts the
// collective before anything is charged to the model.
func (c *Cluster) Partition(ctx context.Context, m *DistMatrix, scheme dep.Scheme, stage int) (*DistMatrix, error) {
	if scheme != dep.Row && scheme != dep.Col {
		return nil, fmt.Errorf("dist: partition to invalid scheme %s", scheme)
	}
	if err := c.opFault(ctx); err != nil {
		return nil, err
	}
	if err := collectiveTurn(ctx); err != nil {
		return nil, err
	}
	out := &DistMatrix{Grid: m.Grid, Scheme: scheme, trans: m.trans}
	// Destinations are the owners under the new scheme — where the shuffle
	// puts each block.
	sent := time.Now()
	wire, err := c.transport.Scatter(ctx, "partition", stage, c.scatterXfers(out, 1))
	wireS := time.Since(sent).Seconds()
	if err := c.commFailure(err, stage); err != nil {
		return nil, err
	}
	c.comm(ctx, stage, commPartition, m.Bytes(),
		obs.String("from_scheme", m.Scheme.String()), obs.String("to_scheme", scheme.String()))
	c.verifyTransfer(ctx, m, stage, commPartition)
	c.chargeWire(ctx, stage, commPartition, wire, wireS)
	return out, nil
}

// Broadcast replicates the matrix on the workers its readers run on. to
// lists them by nominal placement (Holders), nil for every worker; each
// receives a copy at its current owner (receivers), so a worker lost before
// the broadcast is stood in for by the survivor holding its blocks. A
// partitioned source (Row, Col or hash placed, transpose views included) is
// gathered: each block goes only to the receivers other than its owner
// (Owner, the survivor when the nominal owner is dead), which holds it
// already, so a full broadcast on a full cluster charges (N−1) x |A| where
// Eq. 1 plans N x |A|. A broadcast replica read again is copied whole to
// every receiver, |A| each. On the wire the blocks are grouped by owner and
// each group is one ring over the receivers less that owner: the
// coordinator sends each block once and each receiver forwards it to the
// next, so no single link carries the whole fan-out. The groups ring one
// after another, each in ascending worker order; rotated rings run at once
// could wait on each other's forward links in a cycle.
func (c *Cluster) Broadcast(ctx context.Context, m *DistMatrix, stage int, to []int) (*DistMatrix, error) {
	if err := collectiveTurn(ctx); err != nil {
		return nil, err
	}
	out := &DistMatrix{Grid: m.Grid, Scheme: dep.Broadcast, trans: m.trans, reach: c.narrow(to)}
	recv := c.receivers(out)
	xfers, bytes := c.gatherXfers(m, recv)
	sent := time.Now()
	var wire Wire
	for len(xfers) > 0 {
		owner := xfers[0].To
		n := 1
		for n < len(xfers) && xfers[n].To == owner {
			n++
		}
		group := xfers[:n]
		xfers = xfers[n:]
		for i := range group {
			group[i].To = -1
		}
		// The ring's hops are recv less the owner, in place: the owner is
		// taken out for the ring and put back after it.
		hops := recv
		at := slices.Index(recv, owner)
		if at >= 0 {
			hops = slices.Delete(recv, at, at+1)
		}
		rw, err := c.transport.Ring(ctx, "broadcast", stage, group, hops)
		if at >= 0 {
			recv = slices.Insert(hops, at, owner)
		}
		wire.add(rw)
		if err := c.commFailure(err, stage); err != nil {
			return nil, err
		}
	}
	wireS := time.Since(sent).Seconds()
	c.comm(ctx, stage, commBroadcast, bytes,
		obs.String("from_scheme", m.Scheme.String()), obs.Int64("replicas", int64(len(recv))))
	c.verifyTransfer(ctx, m, stage, commBroadcast)
	c.chargeWire(ctx, stage, commBroadcast, wire, wireS)
	return out, nil
}

// gatherXfers lists m's blocks for a broadcast to the receivers recv,
// ordered by owner ascending and by coordinates within an owner, with the
// charge: each block's bytes once per receiver other than its owner. To
// holds the block's owner, -1 for every block of a broadcast replica, which
// no receiver is spared; Broadcast cuts the groups out by it and resets it
// before handing a group to the ring. A block whose owner is recv's only
// receiver goes nowhere and is left out.
func (c *Cluster) gatherXfers(m *DistMatrix, recv []int) ([]BlockXfer, int64) {
	br, bc := m.BlockRows(), m.BlockCols()
	out := make([]BlockXfer, 0, br*bc)
	var bytes int64
	for bi := 0; bi < br; bi++ {
		for bj := 0; bj < bc; bj++ {
			owner, copies := -1, len(recv)
			if m.Scheme != dep.Broadcast {
				owner = c.Owner(m, bi, bj)
				if slices.Contains(recv, owner) {
					copies--
				}
			}
			if copies == 0 {
				continue
			}
			bytes += int64(copies) * m.BlockBytes(bi, bj)
			out = append(out, BlockXfer{Bi: bi, Bj: bj, To: owner, Block: m.StoredBlock(bi, bj)})
		}
	}
	slices.SortStableFunc(out, func(a, b BlockXfer) int { return cmp.Compare(a.To, b.To) })
	return out, bytes
}

// narrow returns a broadcast's reach as Broadcast stores it: to sorted and
// without repeats, or nil when it names every worker.
func (c *Cluster) narrow(to []int) []int {
	if to == nil {
		return nil
	}
	reach := slices.Clone(to)
	slices.Sort(reach)
	reach = slices.Compact(reach)
	if len(reach) == c.cfg.Workers {
		return nil
	}
	return reach
}

// Extract locally filters a broadcast replica down to a Row or Col
// partition; no communication (the extract extended operator). Every block
// of the partition must land on one of the replica's receivers.
func (c *Cluster) Extract(ctx context.Context, m *DistMatrix, scheme dep.Scheme) (*DistMatrix, error) {
	if m.Scheme != dep.Broadcast {
		return nil, fmt.Errorf("dist: extract from scheme %s", m.Scheme)
	}
	if scheme != dep.Row && scheme != dep.Col {
		return nil, fmt.Errorf("dist: extract to invalid scheme %s", scheme)
	}
	out := &DistMatrix{Grid: m.Grid, Scheme: scheme, trans: m.trans}
	if err := c.readsWithin(m, out); err != nil {
		return nil, err
	}
	if err := c.opFault(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// Transpose locally transposes the matrix; the scheme flips between Row and
// Col (Broadcast and hash placements stay as they are). No communication
// (the transpose extended operator). The result is a lazy view sharing the
// operand's blocks (and a broadcast's reach): downstream multiplications fuse
// it into their kernels, and other consumers materialize it on demand. The modelled FLOPs are
// charged here, when the transpose logically happens, so stage accounting is
// independent of whether the view is ever realized.
func (c *Cluster) Transpose(ctx context.Context, m *DistMatrix) *DistMatrix {
	c.charge(ctx, Snapshot{FLOPs: cost.TransposeFLOPs(float64(m.Grid.NNZ()))})
	return &DistMatrix{Grid: m.Grid, Scheme: m.Scheme.Opposite(), trans: !m.trans, reach: m.reach}
}

// ShuffleTranspose is the baseline transpose job: a full shuffle that
// materializes the transpose (SystemML-S pays |A| for it). On the wire each
// block travels once, to the owner of its transposed coordinates.
func (c *Cluster) ShuffleTranspose(ctx context.Context, m *DistMatrix, stage int) (*DistMatrix, error) {
	if err := collectiveTurn(ctx); err != nil {
		return nil, err
	}
	// The move set is m's blocks re-homed under the transposed placement.
	view := &DistMatrix{Grid: m.Grid, Scheme: m.Scheme.Opposite(), trans: !m.trans}
	sent := time.Now()
	wire, err := c.transport.Scatter(ctx, "shuffle-transpose", stage, c.scatterXfers(view, 1))
	wireS := time.Since(sent).Seconds()
	if err := c.commFailure(err, stage); err != nil {
		return nil, err
	}
	c.comm(ctx, stage, commShuffleTranspose, m.Bytes(),
		obs.String("from_scheme", m.Scheme.String()))
	c.verifyTransfer(ctx, m, stage, commShuffleTranspose)
	c.chargeWire(ctx, stage, commShuffleTranspose, wire, wireS)
	c.charge(ctx, Snapshot{FLOPs: cost.TransposeFLOPs(float64(m.Grid.NNZ()))})
	if m.trans {
		// The stored grid already is the transpose of the view; the shuffle
		// materializes it as-is.
		return &DistMatrix{Grid: m.Grid, Scheme: m.Scheme.Opposite()}, nil
	}
	return &DistMatrix{Grid: c.exec.Transpose(ctx, m.Grid), Scheme: m.Scheme.Opposite()}, nil
}
