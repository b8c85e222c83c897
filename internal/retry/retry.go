// Package retry is the shared backoff policy of the runtime: capped
// exponential backoff with optional deterministic jitter and an attempt cap.
// Two very different consumers share it. The engine's stage retry uses
// the deterministic (jitter-free) Backoff schedule to price modelled stall
// time — the differential harnesses depend on the same plan always costing
// the same modelled seconds. The wire transport uses a jittered schedule
// with real sleeping (Do) for dials and reconnects, where jitter exists
// precisely to decorrelate peers retrying against the same endpoint.
package retry

import (
	"context"
	"math"
	"math/rand"
	"time"
)

// Policy describes a backoff schedule. The zero value is usable and falls
// back to the package defaults (50 ms base, 1 s cap, unlimited attempts, no
// jitter).
type Policy struct {
	// BaseSec is the backoff before the first retry; it doubles per attempt.
	BaseSec float64
	// CapSec caps the per-attempt backoff.
	CapSec float64
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter] times
	// its nominal value. Must be in [0, 1); 0 disables jitter and makes the
	// schedule fully deterministic.
	Jitter float64
	// MaxAttempts caps how many attempts Do makes (and how many Next calls a
	// Backoff allows). 0 means unlimited.
	MaxAttempts int
	// Seed drives the jitter stream, so a seeded policy retries identically
	// across runs. Ignored when Jitter is 0.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.BaseSec <= 0 {
		p.BaseSec = 0.05
	}
	if p.CapSec <= 0 {
		p.CapSec = 1.0
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter >= 1 {
		p.Jitter = 0.999
	}
	return p
}

// Backoff returns the deterministic (jitter-free) backoff before retry
// `attempt` (0-based): BaseSec * 2^attempt, capped at CapSec. This is the
// exact schedule the engine's stage retry has always charged as modelled
// stall time.
func (p Policy) Backoff(attempt int) float64 {
	p = p.withDefaults()
	b := p.BaseSec * math.Pow(2, float64(attempt))
	if b > p.CapSec {
		b = p.CapSec
	}
	return b
}

// Backoff is the stateful retry sequence of one operation: it tracks the
// attempt count and the jitter stream. Not safe for concurrent use; each
// retried operation gets its own Backoff.
type Backoff struct {
	p       Policy
	rng     *rand.Rand
	attempt int
}

// New starts a retry sequence under the policy.
func New(p Policy) *Backoff {
	p = p.withDefaults()
	b := &Backoff{p: p}
	if p.Jitter > 0 {
		b.rng = rand.New(rand.NewSource(p.Seed))
	}
	return b
}

// Next returns the backoff to wait before the next retry, and whether the
// sequence allows it. Exhaustion (false) means the caller should stop
// retrying: MaxAttempts retries have been handed out.
func (b *Backoff) Next() (float64, bool) {
	if b.p.MaxAttempts > 0 && b.attempt >= b.p.MaxAttempts {
		return 0, false
	}
	d := b.p.Backoff(b.attempt)
	if b.rng != nil {
		// Uniform over [1-J, 1+J] times nominal, from the seeded stream.
		d *= 1 - b.p.Jitter + 2*b.p.Jitter*b.rng.Float64()
	}
	b.attempt++
	return d, true
}

// Do runs op, retrying with real (jittered) sleeping while it
// fails. It stops and returns the last error when the policy is exhausted,
// and returns the context's error as soon as ctx is done — a sleep in
// progress is interrupted. This is the transport-dial retry loop.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	b := New(p)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		d, ok := b.Next()
		if !ok {
			return err
		}
		t := time.NewTimer(time.Duration(d * float64(time.Second)))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
