package dep

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSchemeStringsAndValidity(t *testing.T) {
	if Row.String() != "r" || Col.String() != "c" || Broadcast.String() != "b" || SchemeNone.String() != "-" {
		t.Error("scheme strings wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme must still print")
	}
	if !Row.Valid() || !Col.Valid() || !Broadcast.Valid() || SchemeNone.Valid() {
		t.Error("Valid wrong")
	}
}

func TestSchemeOpposite(t *testing.T) {
	if Row.Opposite() != Col || Col.Opposite() != Row {
		t.Error("Row/Col opposite wrong")
	}
	if Broadcast.Opposite() != Broadcast {
		t.Error("Broadcast opposite should be Broadcast")
	}
}

func TestConstraints(t *testing.T) {
	if !EqualB(Broadcast, Broadcast) || EqualB(Row, Broadcast) || EqualB(Row, Row) {
		t.Error("EqualB wrong")
	}
	if !EqualRC(Row, Row) || !EqualRC(Col, Col) || EqualRC(Row, Col) || EqualRC(Broadcast, Broadcast) {
		t.Error("EqualRC wrong")
	}
	if !Oppose(Row, Col) || !Oppose(Col, Row) || Oppose(Row, Row) || Oppose(Broadcast, Row) {
		t.Error("Oppose wrong")
	}
	if !Contain(Broadcast, Row) || !Contain(Broadcast, Col) || Contain(Broadcast, Broadcast) || Contain(Row, Broadcast) {
		t.Error("Contain wrong")
	}
}

// TestClassifyTable2Exhaustive checks all 18 combinations (2 matrix
// relations x 3 producer schemes x 3 consumer schemes) against Table 2.
func TestClassifyTable2Exhaustive(t *testing.T) {
	type key struct {
		transposed bool
		pOut, pIn  Scheme
	}
	want := map[key]Type{
		// A = B (not transposed).
		{false, Row, Row}:             Reference,
		{false, Col, Col}:             Reference,
		{false, Row, Col}:             Partition,
		{false, Col, Row}:             Partition,
		{false, Row, Broadcast}:       BroadcastDep,
		{false, Col, Broadcast}:       BroadcastDep,
		{false, Broadcast, Row}:       Extract,
		{false, Broadcast, Col}:       Extract,
		{false, Broadcast, Broadcast}: Reference,
		// B = A^T.
		{true, Row, Row}:             TransposePartition,
		{true, Col, Col}:             TransposePartition,
		{true, Row, Col}:             Transpose,
		{true, Col, Row}:             Transpose,
		{true, Row, Broadcast}:       TransposeBroadcast,
		{true, Col, Broadcast}:       TransposeBroadcast,
		{true, Broadcast, Row}:       ExtractTranspose,
		{true, Broadcast, Col}:       ExtractTranspose,
		{true, Broadcast, Broadcast}: Transpose,
	}
	if len(want) != 18 {
		t.Fatalf("expected 18 combinations, listed %d", len(want))
	}
	for k, w := range want {
		if got := Classify(k.transposed, k.pOut, k.pIn); got != w {
			t.Errorf("Classify(transposed=%v, %s -> %s) = %s, want %s", k.transposed, k.pOut, k.pIn, got, w)
		}
	}
}

func TestClassifyInvalidSchemes(t *testing.T) {
	if Classify(false, SchemeNone, Row) != NoDependency {
		t.Error("invalid producer scheme should yield NoDependency")
	}
	if Classify(true, Row, SchemeNone) != NoDependency {
		t.Error("invalid consumer scheme should yield NoDependency")
	}
}

func TestCommunicationCategories(t *testing.T) {
	comm := []Type{Partition, TransposePartition, BroadcastDep, TransposeBroadcast}
	nonComm := []Type{Reference, Transpose, Extract, ExtractTranspose}
	for _, ty := range comm {
		if !ty.NeedsCommunication() {
			t.Errorf("%s should need communication", ty)
		}
	}
	for _, ty := range nonComm {
		if ty.NeedsCommunication() {
			t.Errorf("%s should not need communication", ty)
		}
	}
	if !BroadcastDep.NeedsBroadcast() || !TransposeBroadcast.NeedsBroadcast() {
		t.Error("broadcast deps should report NeedsBroadcast")
	}
	if Partition.NeedsBroadcast() || Reference.NeedsBroadcast() {
		t.Error("non-broadcast deps should not report NeedsBroadcast")
	}
}

func TestCostModelSituations(t *testing.T) {
	const size, n = 1000, 4
	// Situation 1: non-communication -> 0.
	for _, ty := range []Type{Reference, Transpose, Extract, ExtractTranspose} {
		if got := ty.Cost(size, n); got != 0 {
			t.Errorf("%s cost = %d, want 0", ty, got)
		}
	}
	// Situation 2: partition-like -> |A|.
	for _, ty := range []Type{Partition, TransposePartition} {
		if got := ty.Cost(size, n); got != size {
			t.Errorf("%s cost = %d, want %d", ty, got, size)
		}
	}
	// Situation 3: broadcast-like -> N x |A|.
	for _, ty := range []Type{BroadcastDep, TransposeBroadcast} {
		if got := ty.Cost(size, n); got != n*size {
			t.Errorf("%s cost = %d, want %d", ty, got, n*size)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	names := map[Type]string{
		NoDependency:       "none",
		Partition:          "partition",
		TransposePartition: "transpose-partition",
		BroadcastDep:       "broadcast",
		TransposeBroadcast: "transpose-broadcast",
		Reference:          "reference",
		Transpose:          "transpose",
		Extract:            "extract",
		ExtractTranspose:   "extract-transpose",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type must still print")
	}
}

// Property: every valid combination classifies into exactly one of the 8
// types, and the transpose-marked types appear iff the read is transposed...
func TestQuickClassifyTotalAndConsistent(t *testing.T) {
	schemes := []Scheme{Row, Col, Broadcast}
	f := func(tr bool, a, b uint8) bool {
		pOut, pIn := schemes[int(a)%3], schemes[int(b)%3]
		ty := Classify(tr, pOut, pIn)
		if ty == NoDependency {
			return false // must be total on valid schemes
		}
		// A transposed read must map to a type that includes a transpose
		// step or is satisfied by transposing locally — i.e. exactly the
		// four Aᵀ rows of Table 2.
		isTransposeType := ty == TransposePartition || ty == TransposeBroadcast || ty == Transpose || ty == ExtractTranspose
		return isTransposeType == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a Reference dependency exists iff schemes match exactly on a
// non-transposed read.
func TestQuickReferenceIffExactMatch(t *testing.T) {
	schemes := []Scheme{Row, Col, Broadcast}
	f := func(a, b uint8) bool {
		pOut, pIn := schemes[int(a)%3], schemes[int(b)%3]
		ty := Classify(false, pOut, pIn)
		return (ty == Reference) == (pOut == pIn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// holders lists, in ascending order, the workers that own a block of a
// br x bc block grid placed under s on n workers.
func holders(s Scheme, br, bc, n int) []int {
	on := make([]bool, n)
	for bi := 0; bi < br; bi++ {
		for bj := 0; bj < bc; bj++ {
			on[Owner(s, bi, bj, bc, n)] = true
		}
	}
	var out []int
	for w, ok := range on {
		if ok {
			out = append(out, w)
		}
	}
	return out
}

// TestOwner: a Row (Col) matrix of k block-rows (block-columns) is placed on
// workers 0…min(k, N)−1, a hash-placed one by its blocks' row-major index;
// a transposed view places block (bi, bj) where the stored matrix, under the
// opposite scheme, places block (bj, bi).
func TestOwner(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		br, bc int
		want   []int
	}{
		{Row, 2, 25, []int{0, 1}},
		{Row, 3, 1, []int{0, 1, 2}},
		{Col, 25, 1, []int{0}},
		{Col, 1, 10, []int{0, 1, 2, 3}},
		{SchemeNone, 1, 3, []int{0, 1, 2}},
		{SchemeNone, 3, 1, []int{0, 1, 2}},
		{SchemeNone, 2, 2, []int{0, 1, 2, 3}},
	} {
		if got := holders(tc.scheme, tc.br, tc.bc, 4); !slices.Equal(got, tc.want) {
			t.Errorf("%s, %dx%d blocks on 4 workers: holders %v, want %v", tc.scheme, tc.br, tc.bc, got, tc.want)
		}
	}
	if w := Owner(SchemeNone, 2, 3, 5, 4); w != (2*5+3)%4 {
		t.Errorf("hash owner of block (2,3) of 5 block-columns is %d, want %d", w, (2*5+3)%4)
	}
	if w := Owner(Broadcast, 3, 2, 5, 4); w != 0 {
		t.Errorf("a broadcast replica's block is owned by %d, want 0", w)
	}
	// A 3 x 5 block Col matrix and its transposed view, 5 x 3 blocks under
	// Row: every block lies in one place.
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 5; bj++ {
			if stored, view := Owner(Col, bi, bj, 5, 4), Owner(Row, bj, bi, 3, 4); stored != view {
				t.Errorf("block (%d,%d) is on worker %d, its transposed view's (%d,%d) on %d", bi, bj, stored, bj, bi, view)
			}
		}
	}
}
