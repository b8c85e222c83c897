package transport

import (
	"testing"

	"dmac/internal/obs"
)

// TestCountAllocatesNothing: with a registry attached, a transport count
// allocates nothing once its counter is held; a count of zero registers
// nothing.
func TestCountAllocatesNothing(t *testing.T) {
	tr := NewTCP(Config{})
	defer tr.Close()
	reg := obs.NewRegistry()
	tr.SetObserver(nil, reg)
	tr.count(dialRetries, 0)
	count := func() { tr.count(crcRetransmits, 1) }
	count()
	if a := testing.AllocsPerRun(50, count); a != 0 {
		t.Errorf("count: %v allocations, want 0", a)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["net.crc.retransmits"]; got != 1+1+50 {
		t.Errorf("net.crc.retransmits = %d, want %d", got, 1+1+50)
	}
	if _, ok := snap.Counters["net.dial.retries"]; ok {
		t.Error("a count of zero registered net.dial.retries")
	}
}
