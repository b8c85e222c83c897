package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dmac/internal/workload"
)

// jobCacheStats reads the built-input cache's counters through Stats, as
// /v1/stats shows them.
func jobCacheStats(s *Service) CacheStats { return s.Stats().JobCache }

// TestOneShotJobsStayOutOfTheJobCache: jobs whose keys never repeat are
// built, run and dropped; the cache ends as empty as it began.
func TestOneShotJobsStayOutOfTheJobCache(t *testing.T) {
	s := newTestService(t, testOptions())
	const n = 6
	for i := 0; i < n; i++ {
		runDone(t, s, gramSpec(float64(100+i)))
	}
	if c := jobCacheStats(s); c.Entries != 0 || c.Bytes != 0 || c.Hits != 0 || c.Misses != n {
		t.Errorf("after %d one-shot jobs: %+v, want no entries, no bytes, no hits and %d misses", n, c, n)
	}
}

// TestJobCacheAdmitsOnSecondRequest: a key's first build is dropped, its
// second is kept, and its third request is served from the cache, with its
// inputs where the second left them on the one slot, and the same result
// bits as the two builds before it.
func TestJobCacheAdmitsOnSecondRequest(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	spec := gramSpec(7)
	want := []CacheStats{
		{Misses: 1},
		{Misses: 2, Entries: 1},
		{Hits: 1, Misses: 2, Entries: 1, Placed: 1},
	}
	var first *Result
	for i, w := range want {
		st := runDone(t, s, spec)
		if w.Entries > 0 {
			b, err := s.Registry().Build(spec.Workload, st.BlockSize, spec.Params)
			if err != nil {
				t.Fatal(err)
			}
			w.Bytes = b.InputBytes()
		}
		if c := jobCacheStats(s); c != w {
			t.Errorf("request %d: %+v, want %+v", i+1, c, w)
		}
		res, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if d := resultDiff(res, first.Grids, first.Scalars); d != "" {
			t.Errorf("request %d: %s", i+1, d)
		}
	}
}

// TestJobCacheHoldsOnlyWhatRecurs: over one-shot jobs interleaved with jobs
// that recur, the cache's bytes are exactly the recurring jobs' input bytes.
func TestJobCacheHoldsOnlyWhatRecurs(t *testing.T) {
	s := newTestService(t, testOptions())
	recurring := []JobSpec{
		gramSpec(1),
		{Tenant: "bob", Workload: "blend", Params: workload.Params{"n": 32, "k": 4, "seed": 2}},
		{Tenant: "bob", Workload: "pagerank", Params: workload.Params{"nodes": 48, "iters": 2, "seed": 3}},
	}
	oneShot := 0
	wantBytes := make([]int64, len(recurring))
	for round := 0; round < 3; round++ {
		for i, spec := range recurring {
			st := runDone(t, s, spec)
			b, err := s.Registry().Build(spec.Workload, st.BlockSize, spec.Params)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes[i] = b.InputBytes()
			oneShot++
			runDone(t, s, gramSpec(float64(1000+oneShot)))
		}
	}
	var want int64
	for _, b := range wantBytes {
		want += b
	}
	if c := jobCacheStats(s); c.Bytes != want || c.Entries != len(recurring) {
		t.Errorf("cache holds %d entries of %d bytes, want the %d recurring jobs' %d bytes", c.Entries, c.Bytes, len(recurring), want)
	}
}

// TestJobCacheRemembersABoundedSet: the hashes of keys built once stay at
// most jobCacheSeenKeys, however many distinct keys pass, and none of those
// builds is kept.
func TestJobCacheRemembersABoundedSet(t *testing.T) {
	b, err := workload.DefaultRegistry().Build("gram", 8, workload.Params{"rows": 8, "cols": 8})
	if err != nil {
		t.Fatal(err)
	}
	c := newJobCache(jobCacheBytes)
	peak := 0
	for i := 0; i < jobCacheSeenKeys+jobCacheSeenKeys/2; i++ {
		c.put(fmt.Sprintf("gram|k%d", i), b)
		peak = max(peak, len(c.seen))
	}
	if peak != jobCacheSeenKeys {
		t.Errorf("the remembered set peaked at %d keys, want its bound %d", peak, jobCacheSeenKeys)
	}
	if len(c.seen) > jobCacheSeenKeys/2 {
		t.Errorf("the remembered set holds %d keys after filling up, want it cleared then", len(c.seen))
	}
	if _, _, entries, bytes := c.stats(); entries != 0 || bytes != 0 {
		t.Errorf("%d entries of %d bytes from keys built once", entries, bytes)
	}
}

// TestConcurrentFirstSubmissions: first submissions of one key that
// overlap share one registry build (run it under -race). The builder is held
// until every submission waits on it, so each run sees the overlap: one
// build, every result with its bits, and the key admitted, since the
// doorkeeper counts the requests the build served, as it counts sequential
// ones.
func TestConcurrentFirstSubmissions(t *testing.T) {
	for _, n := range []int{2, 6} {
		opts := testOptions()
		opts.DefaultQuota = TenantQuota{MaxConcurrent: 2, MaxQueued: 16}
		gram, _ := workload.DefaultRegistry().Lookup("gram")
		var builds atomic.Int32
		release := make(chan struct{})
		opts.Registry = workload.NewRegistry()
		opts.Registry.Register("gram", gram.Description, func(size workload.BlockSizer, p workload.Params) (*workload.BuiltJob, error) {
			builds.Add(1)
			<-release
			return gram.Build(size, p)
		})
		s := newTestService(t, opts)
		spec := gramSpec(9)
		key := jobCacheKey(spec.Workload, spec.Params)
		results := make([]*Result, n)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := s.Submit(spec)
				if err == nil {
					_, err = s.Wait(context.Background(), st.ID)
				}
				if err == nil {
					results[i], err = s.Result(st.ID)
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		// Every submission shares the build, or (were builds not shared)
		// runs its own.
		for s.jobCache.waiting(key) < n && int(builds.Load()) < n {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, res := range results[1:] {
			if d := resultDiff(res, results[0].Grids, results[0].Scalars); d != "" {
				t.Errorf("n=%d, submission %d: %s", n, i+2, d)
			}
		}
		if b := builds.Load(); b != 1 {
			t.Errorf("%d concurrent first submissions built %d times, want once", n, b)
		}
		if c := jobCacheStats(s); c.Entries != 1 || c.Hits != 0 || c.Misses != int64(n) {
			t.Errorf("%+v after %d concurrent submissions of one key, want one entry and %d misses", c, n, n)
		}
		runDone(t, s, spec)
		if c := jobCacheStats(s); c.Hits != 1 || builds.Load() != 1 {
			t.Errorf("%+v after %d builds: the key's next request did not hit", c, builds.Load())
		}
	}
}
