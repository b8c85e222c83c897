package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dmac/internal/cost"
	"dmac/internal/expr"
	"dmac/internal/matrix"
)

// Params carries the scalar parameters of a served job (parsed straight from
// the submit request's JSON). Builders read them with defaults and clamps, so
// a malformed or hostile request can size the dataset only within the bounds
// the builder allows.
type Params map[string]float64

// Get returns the named parameter or def.
func (p Params) Get(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// Int returns the named parameter as an int clamped to [min, max].
func (p Params) Int(name string, def, min, max int) int {
	v := int(p.Get(name, float64(def)))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Key canonicalizes the parameters for cache keys: sorted name=value pairs.
func (p Params) Key() string {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%g&", n, p[n])
	}
	return b.String()
}

// BuiltJob is a job materialized by a registry builder: seeded deterministic
// inputs, the program to run against them, and the outputs a client reads
// back. Everything is a pure function of the block size and the params, so
// two builds with the same arguments are bit-identical — which is what lets
// the serve layer cache built jobs across tenants and differentially verify
// served results against isolated runs.
type BuiltJob struct {
	// Inputs are the matrices bound into the session before the first run,
	// every one cut into blocks of side BlockSize.
	Inputs    map[string]*matrix.Grid
	BlockSize int
	// Program is the (re)executed program; Iterations is how many times.
	Program    *expr.Program
	Iterations int
	// Params are the scalar parameters passed to every execution.
	Params map[string]float64
	// Outputs are the session variables returned as the job's result;
	// Scalars are the driver scalars returned alongside.
	Outputs []string
	Scalars []string
}

// InputBytes is the memory footprint of the job's bound inputs.
func (b *BuiltJob) InputBytes() int64 {
	var t int64
	for _, g := range b.Inputs {
		t += g.MemBytes()
	}
	return t
}

// EstimatedBytes prices the job for admission control with the planner's
// block memory model (Eq. 2) at the job's block size: the bound inputs at
// their realized size plus every non-leaf program value at its worst-case
// estimated footprint, times the iteration count's live set (two
// generations: the values being computed and the session instances they
// replace).
func (b *BuiltJob) EstimatedBytes() int64 {
	total := b.InputBytes()
	var perIter int64
	for _, n := range b.Program.Nodes() {
		if n.Kind == expr.KindLoad || n.Kind == expr.KindVar || n.Kind.IsAggregate() {
			continue
		}
		perIter += cost.GridBytes(n.Rows, n.Cols, n.Sparsity, b.BlockSize)
	}
	return total + 2*perIter
}

// BlockSizer picks a job's block side from the dimensions of its largest
// matrix and that matrix's expected density, derived from the params and
// never from generated data, so the side stays a function of (workload,
// params). Registry.Build sizes every job at one fixed side; the job service
// asks a slot's engine (Engine.BlockSizeFor: the paper's Eq. 3 on as many
// threads as the matrix's entries pay for), above its floor.
type BlockSizer func(rows, cols int, density float64) int

// Builder materializes a job from its parameters, asking size once, for its
// largest matrix, for the block side of every input.
type Builder func(size BlockSizer, params Params) (*BuiltJob, error)

// RegistryEntry is one named, describable served workload.
type RegistryEntry struct {
	Name        string
	Description string
	Build       Builder
}

// Registry maps served workload names to job builders. It is safe for
// concurrent use; the serve subsystem resolves every submitted job through
// one.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]RegistryEntry
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]RegistryEntry)}
}

// Register adds (or replaces) a workload.
func (r *Registry) Register(name, description string, build Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		r.order = append(r.order, name)
	}
	r.entries[name] = RegistryEntry{Name: name, Description: description, Build: build}
}

// Lookup returns the named workload and whether it exists.
func (r *Registry) Lookup(name string) (RegistryEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names lists the registered workloads in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Build resolves and materializes a named workload at a fixed block size.
func (r *Registry) Build(name string, blockSize int, params Params) (*BuiltJob, error) {
	return r.BuildSized(name, func(int, int, float64) int { return blockSize }, params)
}

// BuildSized resolves and materializes a named workload at the block size
// size picks for it.
func (r *Registry) BuildSized(name string, size BlockSizer, params Params) (*BuiltJob, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	return e.Build(size, params)
}

// DefaultRegistry returns the registry of bundled served workloads. Each is
// deterministic in its parameters and exercises a different operator mix:
// PageRank (sparse × dense-vector iteration), Gram (fused transpose-multiply
// with a scalar aggregate), and Blend (dense multiply through an elementwise
// nonlinearity).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register("pagerank", "PageRank iterations on a seeded power-law graph (params: nodes, degree, iters, seed)", buildPageRank)
	r.Register("gram", "Gram matrix t(V) %*% V of a seeded sparse matrix, with its cell sum (params: rows, cols, sparsity, seed)", buildGram)
	r.Register("blend", "C = sigmoid(A %*% B) over seeded dense factors, with norm2(C) (params: n, k, iters, seed)", buildBlend)
	return r
}

func buildPageRank(size BlockSizer, params Params) (*BuiltJob, error) {
	nodes := params.Int("nodes", 64, 16, 4096)
	iters := params.Int("iters", 3, 1, 200)
	seed := int64(params.Get("seed", 1))
	degree := params.Get("degree", 3)
	if !(degree >= 1) { // also NaN
		degree = 1
	}
	blockSize := size(nodes, nodes, min(degree, float64(nodes-1))/float64(nodes))
	link := PowerLawGraph(seed, nodes, degree, blockSize)
	normalizeRows(link)
	rank := DenseRandom(seed+1, 1, nodes, blockSize)
	rank = matrix.ScalarGrid(matrix.ScalarMul, rank, 1/matrix.SumGrid(rank))
	dData := make([]float64, nodes)
	for i := range dData {
		dData[i] = 1.0 / float64(nodes)
	}
	d := matrix.FromDense(1, nodes, blockSize, dData)

	sparsity := float64(link.NNZ()) / (float64(nodes) * float64(nodes))
	p := expr.NewProgram()
	linkRef := p.Var("link", nodes, nodes, sparsity)
	rankRef := p.Var("rank", 1, nodes, 1)
	dRef := p.Var("D", 1, nodes, 1)
	walked := p.Scalar(matrix.ScalarMul, p.Mul(rankRef, linkRef), 0.85)
	teleport := p.Scalar(matrix.ScalarMul, dRef, 0.15)
	p.Assign("rank", p.Add(walked, teleport))

	return &BuiltJob{
		Inputs:     map[string]*matrix.Grid{"link": link, "rank": rank, "D": d},
		BlockSize:  blockSize,
		Program:    p,
		Iterations: iters,
		Outputs:    []string{"rank"},
	}, nil
}

func buildGram(size BlockSizer, params Params) (*BuiltJob, error) {
	rows := params.Int("rows", 48, 8, 4096)
	cols := params.Int("cols", 32, 8, 4096)
	seed := int64(params.Get("seed", 2))
	sparsity := params.Get("sparsity", 0.2)
	if !(sparsity > 0 && sparsity <= 1) { // also NaN
		sparsity = 0.2
	}
	blockSize := size(rows, cols, sparsity)
	v := SparseUniform(seed, rows, cols, blockSize, sparsity)

	real := float64(v.NNZ()) / (float64(rows) * float64(cols))
	p := expr.NewProgram()
	vRef := p.Var("V", rows, cols, real)
	g := p.Mul(vRef.T(), vRef)
	p.Sum("gram_sum", g)
	p.Assign("G", g)

	return &BuiltJob{
		Inputs:     map[string]*matrix.Grid{"V": v},
		BlockSize:  blockSize,
		Program:    p,
		Iterations: 1,
		Outputs:    []string{"G"},
		Scalars:    []string{"gram_sum"},
	}, nil
}

func buildBlend(size BlockSizer, params Params) (*BuiltJob, error) {
	n := params.Int("n", 48, 8, 4096)
	k := params.Int("k", 8, 2, 512)
	iters := params.Int("iters", 1, 1, 50)
	seed := int64(params.Get("seed", 3))
	blockSize := size(n, n, 1)
	a := DenseRandom(seed, n, k, blockSize)
	b := DenseRandom(seed+1, k, n, blockSize)

	p := expr.NewProgram()
	aRef := p.Var("A", n, k, 1)
	bRef := p.Var("B", k, n, 1)
	c := p.Func(matrix.FuncSigmoid, p.Mul(aRef, bRef))
	p.Norm2("c_norm", c)
	p.Assign("C", c)

	return &BuiltJob{
		Inputs:     map[string]*matrix.Grid{"A": a, "B": b},
		BlockSize:  blockSize,
		Program:    p,
		Iterations: iters,
		Outputs:    []string{"C"},
		Scalars:    []string{"c_norm"},
	}, nil
}
