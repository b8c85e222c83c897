package matrix

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// CellTree is a tree of cell-wise operators — the binary operators, the
// matrix-scalar operators and the named element-wise functions — over the
// same-shaped blocks of k inputs. Cell (i, j) of the result depends only on
// cell (i, j) of every input, so a whole tree is one pass over a block
// (EvalBlock) instead of one pass, and one materialized block, per operator.
// A single operator is a tree of one link.
type CellTree struct {
	// Inputs is k, the number of operand blocks.
	Inputs int
	// Links are the operators in evaluation order: a link reads inputs and
	// the values of earlier links, and every value but the last — the tree's
	// result — is read by exactly one later link.
	Links []CellLink
}

// CellLinkKind discriminates the operators a CellTree is made of.
type CellLinkKind int

// The link kinds: a cell-wise binary operator, a matrix-scalar operator and
// a named element-wise function.
const (
	LinkBin CellLinkKind = iota
	LinkScalar
	LinkFunc
)

// CellLink is one operator of a CellTree.
type CellLink struct {
	Kind     CellLinkKind
	BinOp    BinOp    // LinkBin
	ScalarOp ScalarOp // LinkScalar
	UFunc    UFunc    // LinkFunc
	// Const is the scalar of a LinkScalar whose Param is empty.
	Const float64
	// Param names the scalar of a LinkScalar supplied at execution time;
	// Bind replaces it with its value.
	Param string
	// A and B are the operands; B is read by LinkBin only.
	A, B CellArg
}

// ZeroPreserving reports whether a scalar or function link maps zero cells to
// zero, so a sparse operand stays sparse; with a named parameter, whether it
// does for every value.
func (l CellLink) ZeroPreserving() bool {
	switch {
	case l.Kind == LinkFunc:
		return l.UFunc.SparsityPreserving()
	case l.Param != "":
		return l.ScalarOp == ScalarMul || l.ScalarOp == ScalarDiv
	default:
		return l.ScalarOp.SparsityPreserving(l.Const)
	}
}

// CellArg names an operand of a link: input Idx of the tree, or with Link
// set the value of link Idx.
type CellArg struct {
	Link bool
	Idx  int
}

// CellInput is the operand reading input i.
func CellInput(i int) CellArg { return CellArg{Idx: i} }

// CellValue is the operand reading the value of link j.
func CellValue(j int) CellArg { return CellArg{Link: true, Idx: j} }

// Validate checks that the links form one tree over the inputs: operands name
// inputs in range or earlier links, and every link but the last is read
// exactly once.
func (t *CellTree) Validate() error {
	if len(t.Links) == 0 {
		return fmt.Errorf("matrix: cell tree without links")
	}
	var rbuf [8]int
	reads := rbuf[:0]
	if len(t.Links) > len(rbuf) {
		reads = make([]int, 0, len(t.Links))
	}
	reads = reads[:len(t.Links)]
	for j, l := range t.Links {
		args := [2]CellArg{l.A}
		nargs := 1
		switch l.Kind {
		case LinkBin:
			args[1], nargs = l.B, 2
		case LinkScalar:
		case LinkFunc:
			if !l.UFunc.Valid() {
				return fmt.Errorf("matrix: cell tree link %d: invalid UFunc %d", j, l.UFunc)
			}
		default:
			return fmt.Errorf("matrix: cell tree link %d: unknown kind %d", j, l.Kind)
		}
		for _, a := range args[:nargs] {
			switch {
			case a.Link && (a.Idx < 0 || a.Idx >= j):
				return fmt.Errorf("matrix: cell tree link %d reads link %d", j, a.Idx)
			case a.Link:
				reads[a.Idx]++
			case a.Idx < 0 || a.Idx >= t.Inputs:
				return fmt.Errorf("matrix: cell tree link %d reads input %d of %d", j, a.Idx, t.Inputs)
			}
		}
	}
	for j, n := range reads[:len(reads)-1] {
		if n != 1 {
			return fmt.Errorf("matrix: cell tree link %d is read %d times", j, n)
		}
	}
	return nil
}

// Bind resolves the named parameters of the tree's scalar links against
// params and returns the tree to evaluate: the receiver itself when it names
// none, otherwise a copy carrying the values.
func (t *CellTree) Bind(params map[string]float64) (*CellTree, error) {
	bound := t
	for j, l := range t.Links {
		if l.Param == "" {
			continue
		}
		v, ok := params[l.Param]
		if !ok {
			return nil, fmt.Errorf("missing parameter %q", l.Param)
		}
		if bound == t {
			bound = &CellTree{Inputs: t.Inputs, Links: slices.Clone(t.Links)}
		}
		bound.Links[j].Const, bound.Links[j].Param = v, ""
	}
	return bound, nil
}

// depth is the number of links on the longest path from the root to an
// input.
func (t *CellTree) depth(j int) int {
	l := &t.Links[j]
	d := 0
	if l.A.Link {
		d = t.depth(l.A.Idx)
	}
	if l.Kind == LinkBin && l.B.Link {
		d = max(d, t.depth(l.B.Idx))
	}
	return d + 1
}

// Format renders the tree in infix over its inputs, named by input:
// "(m2 * m3) / m5".
func (t *CellTree) Format(input func(i int) string) string {
	return t.format(len(t.Links)-1, input)
}

func (t *CellTree) format(j int, input func(i int) string) string {
	l := &t.Links[j]
	arg := func(a CellArg, bare bool) string {
		if !a.Link {
			return input(a.Idx)
		}
		s := t.format(a.Idx, input)
		if bare || t.Links[a.Idx].Kind == LinkFunc {
			return s
		}
		return "(" + s + ")"
	}
	switch l.Kind {
	case LinkBin:
		return fmt.Sprintf("%s %s %s", arg(l.A, false), l.BinOp, arg(l.B, false))
	case LinkScalar:
		c := l.Param
		if c == "" {
			c = fmt.Sprintf("%g", l.Const)
		}
		return fmt.Sprintf("%s %s(%s)", arg(l.A, false), l.ScalarOp, c)
	default:
		return fmt.Sprintf("%s(%s)", l.UFunc, arg(l.A, true))
	}
}

// cellChunk is how many cells of a dense block the evaluator carries through
// the whole tree before moving on: 8 KB an operand, so a link's operands and
// result stay in L1 between links.
const cellChunk = 1024

// cellEvals recycles the evaluator's state — the inputs' payloads and the
// chunk temporaries — between block tasks, so a dense block evaluates
// without allocating.
var cellEvals = sync.Pool{New: func() any { return new(cellEval) }}

// EvalBlock evaluates the tree over one block of every input and returns the
// result block. ins must be the tree's inputs in order, all of one shape, and
// the tree's parameters bound.
//
// When every input is dense the block is walked in chunks of cellChunk cells
// and each chunk is carried through the links in order with the per-operator
// loops of Cellwise, Scalar and ApplyBlock, the value of an interior link
// living in a chunk-sized temporary — so every cell sees the same operations
// in the same order as evaluating link by link over whole blocks, and the
// result is bit for bit the same. The result is written into dst when dst is
// non-nil, which may be one of the inputs: the root link is the only writer
// of dst and reads a chunk's cells before it writes them. A block with a
// sparse input is evaluated link by link with the block kernels instead
// (sparse x sparse products and zero-preserving links stay sparse) and dst is
// left alone.
//
// nnz, when non-nil, has one entry per link and one more: EvalBlock adds the
// stored-element count (Block.NNZ) of every scalar link's operand to that
// link's entry, and of the result to the last.
func (t *CellTree) EvalBlock(ins []Block, dst *DenseBlock, nnz []int64) (Block, error) {
	out, _, err := t.eval(ins, dst, nnz, false)
	return out, err
}

// EvalResult is EvalBlock under the result rule of the block executor: the
// value of every link — the result, and each operand a later link reads —
// has its subnormal elements stored as zeros of their sign (FlushSubnormals)
// as soon as it is computed, a chunk at a time while the chunk is in L1, so
// before a later link reads it or its non-zeros are counted. The result and
// the counts are therefore those of the links run as separate operators,
// each result flushed: fusing a tree changes no bit. It also returns how many
// elements it flushed. Inputs other than dst are read, never written.
func (t *CellTree) EvalResult(ins []Block, dst *DenseBlock, nnz []int64) (Block, int64, error) {
	return t.eval(ins, dst, nnz, true)
}

// eval is EvalBlock, and with flush EvalResult.
func (t *CellTree) eval(ins []Block, dst *DenseBlock, nnz []int64, flush bool) (Block, int64, error) {
	if len(ins) != t.Inputs {
		return nil, 0, fmt.Errorf("%w: cell tree over %d inputs given %d blocks", ErrShape, t.Inputs, len(ins))
	}
	for _, b := range ins[1:] {
		if err := checkSameShape(ins[0], b); err != nil {
			return nil, 0, err
		}
	}
	for _, b := range ins {
		if _, ok := b.(*DenseBlock); !ok {
			return t.evalLinks(ins, nnz, flush)
		}
	}
	if dst == nil {
		dst = NewDense(ins[0].Rows(), ins[0].Cols())
	} else if err := checkSameShape(dst, ins[0]); err != nil {
		return nil, 0, err
	}
	e := cellEvals.Get().(*cellEval)
	defer e.release()
	e.t, e.flush, e.flushed, e.chunk = t, flush, 0, min(cellChunk, len(dst.Data))
	if e.count = nnz != nil; e.count {
		// The counts go to e's own slots and are added to nnz at the end,
		// so the caller's slice stays where the caller put it.
		if cap(e.nnz) < len(t.Links) {
			e.nnz = make([]int64, len(t.Links))
		}
		e.nnz = e.nnz[:len(t.Links)]
		clear(e.nnz)
	}
	for _, b := range ins {
		e.data = append(e.data, b.(*DenseBlock).Data)
	}
	root := len(t.Links) - 1
	if need := 2 * (t.depth(root) - 1) * e.chunk; cap(e.scratch) < need {
		e.scratch = make([]float64, need)
	} else {
		e.scratch = e.scratch[:need]
	}
	for lo := 0; lo < len(dst.Data); lo += e.chunk {
		out := dst.Data[lo:min(lo+e.chunk, len(dst.Data))]
		e.link(root, out, lo, 0)
		if e.count {
			nnz[len(t.Links)] += countNonZero(out)
		}
	}
	for j, n := range e.nnz {
		nnz[j] += n
	}
	return dst, e.flushed, nil
}

// cellEval is the state of one dense EvalBlock.
type cellEval struct {
	t    *CellTree
	data [][]float64 // the inputs' payloads
	// count asks for nnz counts, one per link, kept in nnz until the end.
	count bool
	nnz   []int64
	// flush holds every link's value to the result rule; flushed counts the
	// elements it stored as zero.
	flush   bool
	flushed int64
	// scratch holds two chunk temporaries per tree level below the root —
	// the values of a link's two operands.
	scratch []float64
	chunk   int
}

// release drops what the evaluation referred to and returns e to cellEvals,
// keeping its storage.
func (e *cellEval) release() {
	clear(e.data)
	e.t, e.data, e.nnz = nil, e.data[:0], e.nnz[:0]
	cellEvals.Put(e)
}

// link evaluates link j at level (the root is level 0) over the cells
// [lo, lo+len(out)) into out.
func (e *cellEval) link(j int, out []float64, lo, level int) {
	l := &e.t.Links[j]
	a := e.arg(l.A, len(out), lo, level, 0)
	switch l.Kind {
	case LinkBin:
		l.BinOp.applyInto(out, a, e.arg(l.B, len(out), lo, level, 1))
	case LinkScalar:
		if e.count {
			e.nnz[j] += countNonZero(a)
		}
		l.ScalarOp.applyInto(out, a, l.Const)
	default:
		l.UFunc.applyInto(out, a)
	}
	if e.flush {
		e.flushed += int64(FlushSubnormals(out))
	}
}

// arg returns n cells from lo of an operand of a link at level: a view of
// the input, or the operand link evaluated into this level's temporary for
// that side.
func (e *cellEval) arg(a CellArg, n, lo, level, side int) []float64 {
	if !a.Link {
		return e.data[a.Idx][lo : lo+n]
	}
	tmp := e.scratch[(2*level+side)*e.chunk:][:n]
	e.link(a.Idx, tmp, lo, level+1)
	return tmp
}

// countNonZero counts the cells of x that are not zero, NaN included. On
// AVX-512 the whole groups of eight are counted by countNonZeroAVX512.
func countNonZero(x []float64) int64 {
	var n int64
	if k := len(x) &^ 7; k > 0 && cpu.avx512 {
		n, x = countNonZeroAVX512(&x[0], k), x[k:]
	}
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// FlushSubnormals stores every subnormal element of x — a non-zero of
// magnitude below 2⁻¹⁰²² — as a zero of the same sign, and returns how many it
// stored. NaNs, infinities, zeros and normal values keep their bits. It is the
// result rule of the block executor (sched): a result block never holds a
// subnormal, since on x86 every arithmetic instruction that reads or produces
// one takes a microcode assist. On AVX-512 the whole groups of eight are
// flushed by flushSubnormalsAVX512, which writes a group back only when it
// holds a subnormal; the Go loop is its reference.
func FlushSubnormals(x []float64) int {
	n := 0
	if k := len(x) &^ 7; k > 0 && cpu.avx512 {
		n, x = int(flushSubnormalsAVX512(&x[0], k)), x[k:]
	}
	const sign = 1 << 63
	for i, v := range x {
		// The magnitude's bits less one are below 2⁵²-1 for exactly the
		// subnormals: zero wraps around, and a normal has an exponent.
		if b := math.Float64bits(v); (b&^sign)-1 < 1<<52-1 {
			x[i] = math.Float64frombits(b & sign)
			n++
		}
	}
	return n
}

// flushBlock is FlushSubnormals over a block's stored elements.
func flushBlock(b Block) int {
	switch b := b.(type) {
	case *DenseBlock:
		return FlushSubnormals(b.Data)
	case *CSCBlock:
		return FlushSubnormals(b.Values)
	}
	return 0
}

// evalLinks evaluates the tree link by link over whole blocks with the block
// kernels: the path of a block with a sparse input. With flush, each link's
// value — a block of its own — is flushed before a later link reads it; a
// sparse one keeps its pattern, a flushed element stored as a zero.
func (t *CellTree) evalLinks(ins []Block, nnz []int64, flush bool) (Block, int64, error) {
	var flushed int64
	vals := make([]Block, len(t.Links))
	arg := func(a CellArg) Block {
		if a.Link {
			return vals[a.Idx]
		}
		return ins[a.Idx]
	}
	for j, l := range t.Links {
		switch l.Kind {
		case LinkBin:
			v, err := Cellwise(l.BinOp, arg(l.A), arg(l.B))
			if err != nil {
				return nil, 0, err
			}
			vals[j] = v
		case LinkScalar:
			x := arg(l.A)
			if nnz != nil {
				nnz[j] += int64(x.NNZ())
			}
			vals[j] = Scalar(l.ScalarOp, x, l.Const)
		default:
			vals[j] = ApplyBlock(l.UFunc, arg(l.A))
		}
		if flush {
			flushed += int64(flushBlock(vals[j]))
		}
	}
	out := vals[len(vals)-1]
	if nnz != nil {
		nnz[len(t.Links)] += int64(out.NNZ())
	}
	return out, flushed, nil
}
