//go:build unix

package sched

import (
	"context"
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"dmac/internal/matrix"
)

// BenchmarkBlockTaskFixedCost times what a block product costs whatever it
// holds: one grid of k x k near-empty blocks (one stored entry a block on
// average) against one such block, at the sides Eq. 3 alone gives
// serve_mix's jobs, on an executor of one thread and of eight (serve_mix's
// local parallelism, at which every batch is also offered to up to seven
// helpers of the shared worker pool, and those that pick it up claim tasks
// beside the caller). rowvec is PageRank's rank %*% link at side 181 (k²
// products into k result blocks); sstn is Gram's t(V) %*% V at side 45 (k³
// products into k² result blocks, each product folding a dense result
// block). With next to no arithmetic, ns/product is the fixed cost of a
// product: allocating and zeroing its share of a result block, entering the
// kernel, dispatch and the fold. cpu-ns/product is the process's CPU time
// (getrusage) over the products, what the eight-thread runs cost however
// many cores run them. cost.MinTaskEntries is derived from it and the
// per-entry cost of BenchmarkMulAddRowVecBlocks and BenchmarkMulAddSSTN.
func BenchmarkBlockTaskFixedCost(b *testing.B) {
	for _, form := range []struct {
		name string
		bs   int
	}{{"rowvec", 181}, {"sstn", 45}} {
		for _, c := range []struct{ k, threads int }{{1, 1}, {8, 1}, {8, 8}} {
			k := c.k
			n := k * form.bs
			rng := rand.New(rand.NewSource(int64(k)))
			coords := make([]matrix.Coord, k*k)
			for i := range coords {
				coords[i] = matrix.Coord{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64()}
			}
			v := matrix.FromCoords(n, n, form.bs, coords)
			rankData := make([]float64, n)
			for i := range rankData {
				rankData[i] = rng.Float64()
			}
			rank := matrix.FromDense(1, n, form.bs, rankData)
			products := k * k
			if form.name == "sstn" {
				products *= k
			}
			b.Run(fmt.Sprintf("%s/k=%d/threads=%d", form.name, k, c.threads), func(b *testing.B) {
				e := NewExecutor(c.threads, nil)
				b.ResetTimer()
				cpu0 := cpuTime(b)
				for i := 0; i < b.N; i++ {
					var err error
					if form.name == "rowvec" {
						_, err = e.MulTrans(context.Background(), rank, v, false, false, InPlace)
					} else {
						_, err = e.MulTrans(context.Background(), v, v, true, false, InPlace)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				perProduct := float64(b.N) * float64(products)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perProduct, "ns/product")
				b.ReportMetric(float64((cpuTime(b)-cpu0).Nanoseconds())/perProduct, "cpu-ns/product")
			})
		}
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
