package dist

import (
	"sync"
	"testing"
)

// TestNetStatsConcurrent hammers NetStats with charges of every kind and
// snapshots from many goroutines;
// run with -race it proves the accounting layer is safe for the parallel
// stage tasks and the fault injector that share it.
func TestNetStatsConcurrent(t *testing.T) {
	var n NetStats
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 6 {
				case 0:
					n.Add(Snapshot{CommBytes: 10, CommEvents: 1, Shuffles: 1})
				case 1:
					n.Add(Snapshot{FLOPs: 1})
				case 2:
					n.Add(Snapshot{CommBytes: 5, CommEvents: 1, Shuffles: 1, RecoveryBytes: 5})
				case 3:
					n.Add(Snapshot{Retries: 1})
				case 4:
					n.Add(Snapshot{StallSec: 0.001})
				case 5:
					_ = n.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := n.Snapshot()
	// Case r of the i%6 switch runs ceil((perG-r)/6) times per goroutine.
	hits := func(r int) int { return (perG - r + 5) / 6 }
	wantComm := int64(goroutines * hits(0) * 10)
	wantRecovery := int64(goroutines * hits(2) * 5)
	if s.CommBytes != wantComm+wantRecovery {
		t.Errorf("bytes = %d, want %d", s.CommBytes, wantComm+wantRecovery)
	}
	if s.RecoveryBytes != wantRecovery {
		t.Errorf("recovery bytes = %d, want %d", s.RecoveryBytes, wantRecovery)
	}
	if s.Retries != goroutines*hits(3) {
		t.Errorf("retries = %d, want %d", s.Retries, goroutines*hits(3))
	}
	n.Reset()
	if after := n.Snapshot(); after.CommBytes != 0 || after.FLOPs != 0 || after.Retries != 0 {
		t.Errorf("Reset left state: %+v", after)
	}
}

// TestNetStatsConcurrentReset interleaves writers with Reset; only absence of
// data races is asserted (totals depend on interleaving).
func TestNetStatsConcurrentReset(t *testing.T) {
	var n NetStats
	var wg sync.WaitGroup
	wg.Add(8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g == 0 && i%10 == 0 {
					n.Reset()
					continue
				}
				n.Add(Snapshot{CommBytes: 1, CommEvents: 1, Shuffles: 1})
				n.Add(Snapshot{StallSec: 0.0001})
				_ = n.Snapshot()
			}
		}(g)
	}
	wg.Wait()
}
