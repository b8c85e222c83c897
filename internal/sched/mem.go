package sched

import "sync/atomic"

// MemTracker is an analytic memory accountant. Allocation sites report the
// block-model byte counts (matrix.MemBytes) of live data; the tracker keeps
// the current total and the high-water mark. Using the paper's analytic
// model instead of runtime heap statistics makes the memory experiments
// (Figures 7 and 8b) deterministic.
type MemTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// NewMemTracker returns a tracker with zero usage.
func NewMemTracker() *MemTracker { return &MemTracker{} }

// Add records bytes of newly live data and updates the high-water mark.
func (m *MemTracker) Add(bytes int64) {
	now := m.cur.Add(bytes)
	for {
		p := m.peak.Load()
		if now <= p || m.peak.CompareAndSwap(p, now) {
			return
		}
	}
}

// Sub records bytes of data that became dead.
func (m *MemTracker) Sub(bytes int64) { m.cur.Add(-bytes) }

// Current returns the currently live byte count.
func (m *MemTracker) Current() int64 { return m.cur.Load() }

// Peak returns the high-water mark since creation or the last Reset.
func (m *MemTracker) Peak() int64 { return m.peak.Load() }

// Reset zeroes both the current usage and the peak.
func (m *MemTracker) Reset() {
	m.cur.Store(0)
	m.peak.Store(0)
}
