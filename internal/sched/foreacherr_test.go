package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachErrReturnsFirstError(t *testing.T) {
	e := NewExecutor(4, nil)
	sentinel := errors.New("boom")
	err := e.ForEachErr(context.Background(), 100, func(i int) error {
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("ForEachErr = %v, want sentinel", err)
	}
	if err := e.ForEachErr(context.Background(), 100, func(int) error { return nil }); err != nil {
		t.Errorf("ForEachErr with no failures = %v", err)
	}
}

// TestForEachErrCancelsRemainingTasks fails task 0 and counts how many of
// the rest still run. Every other task first waits until the batch has
// recorded task 0's error (the executor's testFailed seam), so neither a
// participant descheduled between claiming task 0 and failing it nor one
// between task 0's return and the record can let the other run the queue
// meanwhile: a task claimed before the record is the most that runs beside
// task 0.
func TestForEachErrCancelsRemainingTasks(t *testing.T) {
	e := NewExecutor(2, nil)
	const n = 10000
	var ran atomic.Int32
	recorded := make(chan struct{})
	e.testFailed = func() { close(recorded) }
	err := e.ForEachErr(context.Background(), n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return fmt.Errorf("task %d failed", i)
		}
		<-recorded
		return nil
	})
	if err == nil {
		t.Fatal("ForEachErr returned nil after a task failed")
	}
	// Task 0 is the first task a worker pulls; once it fails, the rest of the
	// queue is drained without running. A couple of in-flight tasks may
	// complete, but nothing close to the full queue should.
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d tasks ran after cancellation", got, n)
	}
}

func TestForEachErrSequentialStopsAtError(t *testing.T) {
	e := NewExecutor(1, nil)
	var ran int
	err := e.ForEachErr(context.Background(), 100, func(i int) error {
		ran++
		if i == 5 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 6 {
		t.Errorf("sequential path ran %d tasks (err=%v), want 6 with error", ran, err)
	}
}

// A context cancelled mid-batch aborts the batch at the next task boundary
// with the context's error, on both the parallel and sequential paths.
func TestForEachErrObservesContext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewExecutor(workers, nil)
		ctx, cancel := context.WithCancel(context.Background())
		const n = 10000
		var ran atomic.Int32
		err := e.ForEachErr(ctx, n, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ForEachErr = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > n/2 {
			t.Errorf("workers=%d: %d of %d tasks ran after cancellation", workers, got, n)
		}
		// The cancellation belongs to the batch: the next one runs normally.
		if err := e.ForEachErr(context.Background(), 10, func(int) error { return nil }); err != nil {
			t.Errorf("workers=%d: ForEachErr after a cancelled batch = %v", workers, err)
		}
	}
}

// An already-expired deadline aborts the batch before any task runs.
func TestForEachErrExpiredDeadline(t *testing.T) {
	e := NewExecutor(4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := e.ForEachErr(ctx, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ForEachErr = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d tasks ran under a cancelled context", got)
	}
}

// TestForEachNested runs ForEach from inside ForEach tasks — the shape a
// distributed op takes when a stage-level loop fans out block-level loops —
// and checks every inner task runs exactly once. Run with -race this guards
// the executor's reentrancy.
func TestForEachNested(t *testing.T) {
	e := NewExecutor(4, nil)
	const outer, inner = 8, 50
	var counts [outer * inner]atomic.Int32
	e.ForEach(outer, func(i int) {
		e.ForEach(inner, func(j int) {
			counts[i*inner+j].Add(1)
		})
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("inner task %d ran %d times", i, got)
		}
	}
}

func TestForEachErrNestedPropagates(t *testing.T) {
	e := NewExecutor(4, nil)
	sentinel := errors.New("inner boom")
	err := e.ForEachErr(context.Background(), 8, func(i int) error {
		return e.ForEachErr(context.Background(), 8, func(j int) error {
			if i == 3 && j == 4 {
				return sentinel
			}
			return nil
		})
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("nested ForEachErr = %v, want sentinel", err)
	}
}
