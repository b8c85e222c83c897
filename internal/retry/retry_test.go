package retry

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// TestBackoffScheduleMatchesEngine pins the deterministic schedule to the
// exact doubling-then-cap sequence the engine's stage retry has always
// charged as modelled stall: base*2^attempt capped at CapSec.
func TestBackoffScheduleMatchesEngine(t *testing.T) {
	p := Policy{BaseSec: 0.05, CapSec: 1.0}
	want := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0}
	for i, w := range want {
		if got := p.Backoff(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var p Policy
	if got := p.Backoff(0); got != 0.05 {
		t.Errorf("zero policy Backoff(0) = %v, want default base 0.05", got)
	}
	if got := p.Backoff(20); got != 1.0 {
		t.Errorf("zero policy Backoff(20) = %v, want default cap 1.0", got)
	}
}

// TestJitterBounds draws many jittered backoffs and checks every one stays
// inside [1-J, 1+J] times the nominal value — and that jitter actually
// spreads them (not all equal).
func TestJitterBounds(t *testing.T) {
	const jitter = 0.25
	p := Policy{BaseSec: 0.1, CapSec: 100, Jitter: jitter, Seed: 7}
	nominal := p.Backoff(0)
	lo, hi := nominal*(1-jitter), nominal*(1+jitter)
	seen := make(map[float64]bool)
	for trial := 0; trial < 200; trial++ {
		b := New(Policy{BaseSec: 0.1, CapSec: 100, Jitter: jitter, Seed: int64(trial)})
		d, ok := b.Next()
		if !ok {
			t.Fatalf("trial %d: first Next exhausted", trial)
		}
		if d < lo-1e-12 || d > hi+1e-12 {
			t.Fatalf("trial %d: jittered backoff %v outside [%v, %v]", trial, d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 50 {
		t.Errorf("jitter produced only %d distinct values over 200 seeds", len(seen))
	}
}

// TestJitterDeterministicPerSeed pins that the jitter stream is a pure
// function of the seed, so retries are reproducible.
func TestJitterDeterministicPerSeed(t *testing.T) {
	mk := func() []float64 {
		b := New(Policy{BaseSec: 0.1, CapSec: 10, Jitter: 0.5, Seed: 42})
		var out []float64
		for i := 0; i < 5; i++ {
			d, ok := b.Next()
			if !ok {
				t.Fatal("exhausted early")
			}
			out = append(out, d)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCapAppliesBeforeJitterScale(t *testing.T) {
	// At a high attempt the nominal value is the cap; jitter still spreads
	// around the cap but never exceeds cap*(1+J).
	p := Policy{BaseSec: 1, CapSec: 2, Jitter: 0.1, Seed: 3}
	b := New(p)
	for i := 0; i < 10; i++ {
		d, ok := b.Next()
		if !ok {
			break
		}
		if d > 2*1.1+1e-12 {
			t.Fatalf("attempt %d: backoff %v exceeds jittered cap", i, d)
		}
	}
}

func TestMaxAttemptsExhaustion(t *testing.T) {
	b := New(Policy{BaseSec: 0.01, CapSec: 1, MaxAttempts: 2})
	if _, ok := b.Next(); !ok {
		t.Fatal("attempt 1 refused")
	}
	if _, ok := b.Next(); !ok {
		t.Fatal("attempt 2 refused")
	}
	if _, ok := b.Next(); ok {
		t.Fatal("attempt 3 allowed past MaxAttempts=2")
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{BaseSec: 1e-4, CapSec: 1e-3}, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoReturnsLastErrorOnExhaustion(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Do(context.Background(), Policy{BaseSec: 1e-5, CapSec: 1e-4, MaxAttempts: 2}, func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want last error %v", err, boom)
	}
	if calls != 3 { // initial attempt + 2 retries
		t.Fatalf("Do made %d calls, want 3", calls)
	}
}

func TestDoHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	err := Do(ctx, Policy{BaseSec: 10, CapSec: 10}, func(context.Context) error {
		cancel() // the caller gives up while the first attempt runs
		return errors.New("always fails")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the sleep")
	}
}
