package matrix

import (
	"math/rand"
	"testing"
)

// refMul computes the reference product via the naive At-based algorithm.
func refMul(a, b Block) *DenseBlock {
	out := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for k := 0; k < a.Cols(); k++ {
				s += float64(a.At(i, k) * b.At(k, j))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// mulBlocks returns a * b in a fresh dense block.
func mulBlocks(a, b Block) (*DenseBlock, error) {
	dst := NewDense(a.Rows(), b.Cols())
	return dst, MulAddTransInto(dst, a, b, false, false)
}

func TestMulKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	da := randDense(rng, 7, 5)
	db := randDense(rng, 5, 9)
	sa := randSparse(rng, 7, 5, 0.35)
	sb := randSparse(rng, 5, 9, 0.35)
	cases := []struct {
		name string
		a, b Block
	}{
		{"dense-dense", da, db},
		{"dense-sparse", da, sb},
		{"sparse-dense", sa, db},
		{"sparse-sparse", sa, sb},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := mulBlocks(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			want := refMul(c.a, c.b)
			if !Equal(got, want, 1e-10) {
				t.Errorf("kernel result differs from reference")
			}
		})
	}
}

func TestMulAddIntoAccumulates(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 0, 0, 1})
	b := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	dst := NewDenseData(2, 2, []float64{10, 10, 10, 10})
	if err := MulAddTransInto(dst, a, b, false, false); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 12, 13, 14}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Errorf("dst[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestMulShapeErrors(t *testing.T) {
	if _, err := mulBlocks(NewDense(2, 3), NewDense(2, 3)); err == nil {
		t.Error("expected inner-dimension mismatch error")
	}
	if err := MulAddTransInto(NewDense(3, 3), NewDense(2, 3), NewDense(3, 2), false, false); err == nil {
		t.Error("expected destination shape error")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 6, 6)
	id := NewDense(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	got, err := mulBlocks(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, a, 1e-12) {
		t.Error("A * I != A")
	}
	got2, err := mulBlocks(id, a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got2, a, 1e-12) {
		t.Error("I * A != A")
	}
}

// quickBlocks generates a deterministic pseudo-random block pair for the
// property tests below.
func quickBlocks(seed int64) (Block, Block, Block) {
	rng := rand.New(rand.NewSource(seed))
	rows := 1 + rng.Intn(8)
	inner := 1 + rng.Intn(8)
	cols := 1 + rng.Intn(8)
	mk := func(r, c int) Block {
		if rng.Intn(2) == 0 {
			return randDense(rng, r, c)
		}
		return randSparse(rng, r, c, 0.4)
	}
	return mk(rows, inner), mk(inner, cols), mk(cols, 1+rng.Intn(8))
}

// Property: (A*B)^T == B^T * A^T for all representation combinations.
func TestPropertyTransposeOfProduct(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		a, b, _ := quickBlocks(seed)
		ab, err := mulBlocks(a, b)
		if err != nil {
			t.Fatal(err)
		}
		btat, err := mulBlocks(b.Transpose(), a.Transpose())
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(ab.Transpose(), btat, 1e-9) {
			t.Fatalf("seed %d: (AB)^T != B^T A^T", seed)
		}
	}
}

// Property: matrix multiplication is associative: (AB)C == A(BC).
func TestPropertyMulAssociative(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		a, b, c := quickBlocks(seed)
		ab, err := mulBlocks(a, b)
		if err != nil {
			t.Fatal(err)
		}
		abc1, err := mulBlocks(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := mulBlocks(b, c)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := mulBlocks(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(abc1, abc2, 1e-8) {
			t.Fatalf("seed %d: associativity violated", seed)
		}
	}
}

// Property: A*(B+C) == A*B + A*C (distributivity).
func TestPropertyMulDistributive(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		n, m, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randDense(rng, n, m)
		b := randSparse(rng, m, p, 0.5)
		c := randDense(rng, m, p)
		bc, err := Cellwise(OpAdd, b, c)
		if err != nil {
			t.Fatal(err)
		}
		lhs, err := mulBlocks(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		ab, _ := mulBlocks(a, b)
		ac, _ := mulBlocks(a, c)
		rhs, err := Cellwise(OpAdd, ab, ac)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(lhs, rhs, 1e-9) {
			t.Fatalf("seed %d: distributivity violated", seed)
		}
	}
}
