package serve

import (
	"math"

	"dmac/internal/matrix"
)

// gridBits reports whether two grids hold the same values bit for bit, NaN
// included (GridEqual's tolerance test lets a NaN through).
func gridBits(a, b *matrix.Grid) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	da, db := a.ToDense(), b.ToDense()
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			return false
		}
	}
	return true
}
