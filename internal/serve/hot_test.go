package serve

import "testing"

// TestHotGramJobAllocations is the ratchet on a hot served job: a gram job
// whose inputs the built-input cache holds, submitted and waited for through
// Submit and Wait. The count is pinned at what such a job makes, so a change
// may lower it but never raise it.
func TestHotGramJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets mean nothing under the race detector")
	}
	const pinned = 107
	s := newTestService(t, testOptions())
	spec := gramSpec(1)
	for i := 0; i < 3; i++ { // the third submission is a cache hit
		runDone(t, s, spec)
	}
	allocs := testing.AllocsPerRun(20, func() { runDone(t, s, spec) })
	t.Logf("a hot gram job makes %.0f allocations", allocs)
	if c := jobCacheStats(s); c.Hits < 20 {
		t.Fatalf("the measured jobs were not served from the cache: %+v", c)
	}
	if allocs > pinned {
		t.Errorf("a hot gram job makes %.0f allocations, pinned at %d", allocs, pinned)
	}
}
