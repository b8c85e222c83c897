package dist

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
	// nominal placement (dep.Owner), nil for every worker; Cluster.receivers
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
// broadcast) and for a nil matrix. The slice is the matrix's and must not be
// modified.
func (m *DistMatrix) Reach() []int {
	if m == nil {
		return nil
	}
	return m.reach
}

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

// Owner returns the worker a block is placed on under the matrix's scheme
// (dep.Owner). Block coordinates are logical, so a transpose view places
// block (bi, bj) exactly where the materialized transpose would. Blocks whose
// nominal owner has been killed are deterministically re-assigned across the
// surviving workers.
func (c *Cluster) Owner(m *DistMatrix, bi, bj int) int {
	return c.reassignIfDead(dep.Owner(m.Scheme, bi, bj, m.BlockCols(), c.cfg.Workers))
}

// receivers appends to dst, in ascending order, the alive workers holding a
// copy of the matrix: for a broadcast replica, the current owners of the
// workers it reaches (every alive worker for a full one); for any other
// matrix, every alive worker, which is where its reach of nil puts it.
func (c *Cluster) receivers(dst []int, m *DistMatrix) []int {
	if m.reach == nil {
		return c.aliveList(dst)
	}
	at := len(dst)
	for _, w := range m.reach {
		dst = append(dst, c.reassignIfDead(w))
	}
	slices.Sort(dst[at:])
	return dst[:at+len(slices.Compact(dst[at:]))]
}

// owners returns in dst's array, in ascending order, the workers that own a
// block of m: under the owner rule, the only workers that have a part of m
// to send. A broadcast replica is whole on each of its receivers, so its
// first one alone has all of it.
func (c *Cluster) owners(dst []int, m *DistMatrix) []int {
	if m.Scheme == dep.Broadcast {
		return c.receivers(dst[:0], m)[:1]
	}
	out := dst[:0]
	for bi := 0; bi < m.BlockRows() && len(out) < c.cfg.Workers; bi++ {
		for bj := 0; bj < m.BlockCols(); bj++ {
			if w := c.Owner(m, bi, bj); !slices.Contains(out, w) {
				out = append(out, w)
			}
		}
	}
	slices.Sort(out)
	return out
}

// readsWithin is the receiver check of a narrowed broadcast b: every block of
// part, the matrix whose blocks b is read next to, must be owned by one of
// b's receivers. A reader placed outside them would read a copy that was
// never sent.
func (c *Cluster) readsWithin(b, part *DistMatrix) error {
	if b.reach == nil {
		return nil
	}
	to := c.receivers(nil, b)
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
		if m.reach != nil && slices.Contains(c.receivers(nil, m), w) {
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
	out := &DistMatrix{Grid: m.Grid, Scheme: scheme, trans: m.trans}
	mv := takeMoves()
	defer mv.release()
	xfers := c.scatterXfers(mv, out)
	err := c.collective(ctx, stage, commPartition, m.Bytes(), m, func() (Wire, error) {
		return c.transport.Scatter(ctx, "partition", stage, xfers)
	}, obs.String("from_scheme", m.Scheme.String()), obs.String("to_scheme", scheme.String()))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Broadcast replicates the matrix on the workers its readers run on. to
// lists them by nominal placement (core.Op.Reach), nil for every worker; each
// receives a copy at its current owner (receivers), so a worker lost before
// the broadcast is stood in for by the survivor holding its blocks. A block
// goes only to the receivers that do not hold it already: a partitioned
// source's (Row, Col or hash placed, transpose views included) to every
// receiver but its owner (Owner, the survivor when the nominal owner is
// dead), so a full broadcast on a full cluster charges (N−1) x |A| where
// Eq. 1 plans N x |A|; a broadcast replica's to the receivers outside its
// own. On the wire the blocks are grouped by the worker they are sent from
// and each group is one ring over the receivers less that worker: the
// coordinator sends each block once and each receiver forwards it to the
// next, so no single link carries the whole fan-out. The groups ring one
// after another, each in ascending worker order; rotated rings run at once
// could wait on each other's forward links in a cycle.
func (c *Cluster) Broadcast(ctx context.Context, m *DistMatrix, stage int, to []int) (*DistMatrix, error) {
	out := &DistMatrix{Grid: m.Grid, Scheme: dep.Broadcast, trans: m.trans, reach: c.narrow(to)}
	mv := takeMoves()
	defer mv.release()
	mv.recv = c.receivers(mv.recv, out)
	recv := mv.recv
	replicas := len(recv)
	if m.Scheme == dep.Broadcast {
		mv.held = c.receivers(mv.held, m)
		held := mv.held
		recv = slices.DeleteFunc(recv, func(w int) bool { return slices.Contains(held, w) })
	}
	xfers, bytes := c.gatherXfers(mv, m, recv)
	err := c.collective(ctx, stage, commBroadcast, bytes, m, func() (Wire, error) {
		return c.rings(ctx, stage, xfers, recv)
	}, obs.String("from_scheme", m.Scheme.String()), obs.Int64("replicas", int64(replicas)))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rings hands a broadcast's move list to the transport, one ring per group
// of blocks sent from one worker, over recv less that worker.
func (c *Cluster) rings(ctx context.Context, stage int, xfers []BlockXfer, recv []int) (Wire, error) {
	var wire Wire
	for len(xfers) > 0 {
		from := xfers[0].From
		n := 1
		for n < len(xfers) && xfers[n].From == from {
			n++
		}
		group := xfers[:n]
		xfers = xfers[n:]
		// The ring's hops are recv less the sender, in place: the sender is
		// taken out for the ring and put back after it.
		hops := recv
		at := slices.Index(recv, from)
		if at >= 0 {
			hops = slices.Delete(recv, at, at+1)
		}
		rw, err := c.transport.Ring(ctx, "broadcast", stage, group, hops)
		if at >= 0 {
			recv = slices.Insert(hops, at, from)
		}
		wire.add(rw)
		if err != nil {
			return wire, err
		}
	}
	return wire, nil
}

// gatherXfers lists in mv m's blocks for a broadcast to the receivers recv that do
// not hold m already, ordered by the worker each is sent from, ascending,
// and by coordinates within it, with the charge: each block's bytes once
// per receiver other than its sender. From is a partitioned source's owner,
// -1 for every block of a broadcast replica, which recv lists none of the
// holders of. A block whose sender is recv's only receiver goes nowhere and
// is left out.
func (c *Cluster) gatherXfers(mv *moves, m *DistMatrix, recv []int) ([]BlockXfer, int64) {
	br, bc := m.BlockRows(), m.BlockCols()
	out := mv.xfers
	var bytes int64
	for bi := 0; bi < br; bi++ {
		for bj := 0; bj < bc; bj++ {
			from, copies := -1, len(recv)
			if m.Scheme != dep.Broadcast {
				from = c.Owner(m, bi, bj)
				if slices.Contains(recv, from) {
					copies--
				}
			}
			if copies == 0 {
				continue
			}
			bytes += int64(copies) * m.BlockBytes(bi, bj)
			out = append(out, BlockXfer{Bi: bi, Bj: bj, From: from, To: -1, Block: m.StoredBlock(bi, bj)})
		}
	}
	slices.SortStableFunc(out, func(a, b BlockXfer) int { return cmp.Compare(a.From, b.From) })
	mv.xfers = out
	return out, bytes
}

// narrow returns a broadcast's reach as Broadcast stores it: to sorted and
// without repeats, or nil when it is nil or names every worker. A to already
// so, as core.Op.Reach is, is kept as it is: nothing writes through a reach.
func (c *Cluster) narrow(to []int) []int {
	for i := 1; i < len(to); i++ {
		if to[i] <= to[i-1] {
			to = slices.Clone(to)
			slices.Sort(to)
			to = slices.Compact(to)
			break
		}
	}
	if len(to) == c.cfg.Workers {
		return nil
	}
	return to
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
	// The move set is m's blocks re-homed under the transposed placement.
	view := &DistMatrix{Grid: m.Grid, Scheme: m.Scheme.Opposite(), trans: !m.trans}
	mv := takeMoves()
	defer mv.release()
	xfers := c.scatterXfers(mv, view)
	err := c.collective(ctx, stage, commShuffleTranspose, m.Bytes(), m, func() (Wire, error) {
		return c.transport.Scatter(ctx, "shuffle-transpose", stage, xfers)
	}, obs.String("from_scheme", m.Scheme.String()))
	if err != nil {
		return nil, err
	}
	c.charge(ctx, Snapshot{FLOPs: cost.TransposeFLOPs(float64(m.Grid.NNZ()))})
	if m.trans {
		// The stored grid already is the transpose of the view; the shuffle
		// materializes it as-is.
		return &DistMatrix{Grid: m.Grid, Scheme: m.Scheme.Opposite()}, nil
	}
	return &DistMatrix{Grid: c.exec.Transpose(ctx, m.Grid), Scheme: m.Scheme.Opposite()}, nil
}
