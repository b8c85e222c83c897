package serve

import (
	"context"
	"testing"
	"time"

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// TestSlotResultSurvivesLaterJobs: a slot's engine reuses the result blocks
// its earlier jobs left behind, so a result handed to a client must be out
// of its reach. Nine jobs of one shape run back to back on a single slot;
// the first job's result must keep its bits through the eight after it, and
// match a dedicated engine's.
func TestSlotResultSurvivesLaterJobs(t *testing.T) {
	opts := testOptions()
	opts.Slots = 1
	s := newTestService(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	submit := func(seed float64) (string, *Result) {
		params := workload.Params{"n": 32, "k": 6, "iters": 2, "seed": seed}
		st, err := s.Submit(JobSpec{Tenant: "alice", Workload: "blend", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = s.Wait(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("job %s: state %s, err %v %q", st.ID, st.State, err, st.Error)
		}
		res, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID, res
	}
	firstID, first := submit(1)
	kept := make(map[string]*matrix.Grid)
	for name, g := range first.Grids {
		kept[name] = g.Clone()
	}
	for seed := 2; seed <= 9; seed++ {
		submit(float64(seed))
	}
	st, err := s.Status(firstID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := soloRun(t, opts, "blend", workload.Params{"n": 32, "k": 6, "iters": 2, "seed": 1}, st.BlockSize)
	for name, g := range first.Grids {
		if matrix.BitDiff(g, kept[name]) != "" {
			t.Errorf("output %s of the first job changed while later jobs ran on its slot", name)
		}
		if matrix.BitDiff(g, want[name]) != "" {
			t.Errorf("output %s of the first job differs from a dedicated engine's", name)
		}
	}
}
