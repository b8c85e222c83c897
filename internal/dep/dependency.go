package dep

import "fmt"

// Type is one of the eight matrix-dependency types of Table 2. Each type
// names the matrix process needed to make the scheme of a produced matrix A
// satisfy the requirement of a consuming operator reading B, where B = A or
// B = Aᵀ.
type Type int

// The eight dependency types. The first four require communication, the
// last four do not (Section 3.2).
const (
	// NoDependency indicates the classification inputs do not match any of
	// the 18 combinations (e.g. an invalid scheme).
	NoDependency Type = iota
	// Partition: same matrix, opposed one-dimensional schemes; requires a
	// repartition (shuffle).
	Partition
	// TransposePartition: B = Aᵀ with equal one-dimensional schemes;
	// requires a transpose plus a repartition.
	TransposePartition
	// BroadcastDep: same matrix, consumer needs Broadcast of a
	// one-dimensionally partitioned matrix; requires replication.
	BroadcastDep
	// TransposeBroadcast: B = Aᵀ and the consumer needs Broadcast of a
	// one-dimensionally partitioned matrix.
	TransposeBroadcast
	// Reference: the produced scheme already satisfies the requirement.
	Reference
	// Transpose: B = Aᵀ with opposed schemes (or both Broadcast); a local
	// transpose suffices.
	Transpose
	// Extract: producer is Broadcast, consumer needs Row or Col; a local
	// filter suffices.
	Extract
	// ExtractTranspose: B = Aᵀ, producer Broadcast, consumer Row or Col;
	// local extract plus local transpose.
	ExtractTranspose
)

// String names the dependency type as in Table 2.
func (t Type) String() string {
	switch t {
	case NoDependency:
		return "none"
	case Partition:
		return "partition"
	case TransposePartition:
		return "transpose-partition"
	case BroadcastDep:
		return "broadcast"
	case TransposeBroadcast:
		return "transpose-broadcast"
	case Reference:
		return "reference"
	case Transpose:
		return "transpose"
	case Extract:
		return "extract"
	case ExtractTranspose:
		return "extract-transpose"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// NeedsCommunication reports whether the dependency belongs to the
// Communication Dependency category of Section 3.2.
func (t Type) NeedsCommunication() bool {
	switch t {
	case Partition, TransposePartition, BroadcastDep, TransposeBroadcast:
		return true
	default:
		return false
	}
}

// NeedsBroadcast reports whether satisfying the dependency replicates the
// matrix to every worker (cost N x |A| in the cost model, Situation 3 of
// Section 4.1).
func (t Type) NeedsBroadcast() bool {
	return t == BroadcastDep || t == TransposeBroadcast
}

// Classify maps an (output event, input event) pair onto its dependency
// type, implementing Table 2. transposed states whether the consumed matrix
// B is the transpose of the produced matrix A (B = Aᵀ); pOut is the scheme A
// was produced with, pIn the scheme the consumer requires for B.
func Classify(transposed bool, pOut, pIn Scheme) Type {
	if !pOut.Valid() || !pIn.Valid() {
		return NoDependency
	}
	if !transposed {
		switch {
		case Oppose(pOut, pIn):
			return Partition
		case Contain(pIn, pOut):
			return BroadcastDep
		case EqualRC(pOut, pIn) || EqualB(pOut, pIn):
			return Reference
		case Contain(pOut, pIn):
			return Extract
		}
		return NoDependency
	}
	switch {
	case EqualRC(pOut, pIn):
		return TransposePartition
	case Contain(pIn, pOut):
		return TransposeBroadcast
	case Oppose(pOut, pIn) || EqualB(pOut, pIn):
		return Transpose
	case Contain(pOut, pIn):
		return ExtractTranspose
	}
	return NoDependency
}

// Cost returns the communication cost of satisfying an input event whose
// dependency on its producing output event has type t, per the cost model of
// Section 4.1: 0 for non-communication dependencies, |A| for (transpose-)
// partition, N x |A| for (transpose-)broadcast. size is |A| in bytes (from
// the worst-case estimator) and workers is N.
func (t Type) Cost(size int64, workers int) int64 {
	switch {
	case !t.NeedsCommunication():
		return 0
	case t.NeedsBroadcast():
		return int64(workers) * size
	default:
		return size
	}
}
