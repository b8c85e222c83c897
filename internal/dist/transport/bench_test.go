package transport

import (
	"context"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/matrix"
)

// The collectives at pagerank_wire's shapes — the rank vector of a
// 60000-node graph as 6 dense 10606x1 blocks, 4 loopback workers — so the
// wire layer can be timed without the benchmark ledger around it:
//
//	go test -run '^$' -bench 'Ring|Scatter|Broadcast' -benchmem ./internal/dist/transport

const (
	benchWorkers = 4
	benchBlocks  = 6
	benchRows    = 10606
)

// benchCluster starts the loopback workers and a coordinator with its
// connections dialed, and returns the transfers of one collective.
func benchCluster(b *testing.B) (*TCP, []dist.BlockXfer) {
	b.Helper()
	addrs := make([]string, benchWorkers)
	for i := range addrs {
		w := NewWorker(WorkerConfig{})
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go w.Serve()
		b.Cleanup(func() { w.Close() })
		addrs[i] = addr.String()
	}
	tr := NewTCP(Config{Addrs: addrs})
	b.Cleanup(func() { tr.Close() })
	xfers := make([]dist.BlockXfer, benchBlocks)
	for i := range xfers {
		data := make([]float64, benchRows)
		for j := range data {
			data[j] = float64(i*benchRows+j) + 0.5
		}
		xfers[i] = dist.BlockXfer{Bi: i, To: i % benchWorkers, Block: matrix.NewDenseData(benchRows, 1, data)}
	}
	b.SetBytes(benchBlocks * 8 * benchRows) // the collective's payload, once
	return tr, xfers
}

func BenchmarkRing(b *testing.B) {
	tr, xfers := benchCluster(b)
	hops := []int{0, 1, 2, 3}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A new stage every time, as in a run: the hops drop the last one's
		// blocks and take these.
		if _, err := tr.Ring(ctx, "broadcast", i+1, xfers, hops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScatter(b *testing.B) {
	tr, xfers := benchCluster(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Scatter(ctx, "partition", i+1, xfers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcast is the rank vector's full broadcast as a run makes it,
// through the cluster: its six block-columns sit on workers 0, 1, 2, 3, 0, 1,
// so it is four rings, one per owner, each over the other three workers.
func BenchmarkBroadcast(b *testing.B) {
	tr, _ := benchCluster(b)
	c := dist.NewCluster(dist.Config{Workers: benchWorkers, LocalParallelism: 1})
	c.SetTransport(tr)
	rank := dist.NewDistMatrix(matrix.NewDenseGrid(1, benchBlocks*benchRows, benchRows), dep.Col)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Broadcast(ctx, rank, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingEqualBytes is one ring carrying all six blocks over three
// hops: each block reaches three workers, as in BenchmarkBroadcast's four
// owner rings, so the two move the same wire bytes in one ring and in four.
// BenchmarkRing's four hops move a third more.
func BenchmarkRingEqualBytes(b *testing.B) {
	tr, xfers := benchCluster(b)
	hops := []int{1, 2, 3}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Ring(ctx, "broadcast", i+1, xfers, hops); err != nil {
			b.Fatal(err)
		}
	}
}
