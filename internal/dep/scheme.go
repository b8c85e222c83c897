// Package dep defines DMac's partition schemes, matrix identities, and the
// eight matrix-dependency types of Table 2 in the paper, together with their
// communication classification (Section 3).
package dep

import "fmt"

// Scheme is a distribution scheme of a matrix across the cluster
// (Section 3.1). DMac uses the two one-dimensional partition schemes plus
// Broadcast, which replicates every element on every worker.
type Scheme int

// The three schemes adopted by DMac.
const (
	// SchemeNone marks an unknown or not-yet-assigned scheme.
	SchemeNone Scheme = iota
	// Row partitions elements of the same row into the same partition.
	Row
	// Col partitions elements of the same column into the same partition.
	Col
	// Broadcast replicates every element at each partition.
	Broadcast
)

// String returns the single-letter notation used in the paper's figures
// (r, c, b).
func (s Scheme) String() string {
	switch s {
	case Row:
		return "r"
	case Col:
		return "c"
	case Broadcast:
		return "b"
	case SchemeNone:
		return "-"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Valid reports whether s is one of the three concrete schemes.
func (s Scheme) Valid() bool { return s == Row || s == Col || s == Broadcast }

// Opposite returns the complementary one-dimensional scheme (Row <-> Col).
// Broadcast is its own opposite: a local transpose of a broadcast replica is
// still a broadcast replica.
func (s Scheme) Opposite() Scheme {
	switch s {
	case Row:
		return Col
	case Col:
		return Row
	default:
		return s
	}
}

// The four scheme constraints of Table 1.

// EqualB reports whether both schemes are Broadcast.
func EqualB(pi, pj Scheme) bool { return pi == Broadcast && pj == Broadcast }

// EqualRC reports whether the schemes are the same one-dimensional scheme
// (both Row or both Col).
func EqualRC(pi, pj Scheme) bool {
	return pi == pj && (pi == Row || pi == Col)
}

// Oppose reports whether one scheme is Row and the other Col.
func Oppose(pi, pj Scheme) bool {
	return (pi == Row && pj == Col) || (pi == Col && pj == Row)
}

// Contain reports whether pi is Broadcast while pj is a one-dimensional
// scheme: a broadcast replica contains every one-dimensional partition.
func Contain(pi, pj Scheme) bool {
	return pi == Broadcast && (pj == Row || pj == Col)
}
