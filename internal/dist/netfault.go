package dist

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// errInjectedPartition is the root cause of an injected network partition;
// it surfaces wrapped in *PeerDown, then converted to *WorkerFailure.
var errInjectedPartition = errors.New("dist: injected network partition")

// netFaultTransport is the network fault injector: a Transport wrapping the
// real data plane, so drops, delays and partitions are injected at the exact
// layer a real network fails at, and exercise the in-process and TCP
// transports identically.
//
//   - A partition (plan NetPartition, or a scripted FaultNetPartition event)
//     fails the collective with *PeerDown before anything is sent: the link
//     to the worker is gone. The cluster converts it into *WorkerFailure,
//     and engine recovery removes the worker, after which it is no longer a
//     destination and the retry proceeds.
//   - A drop (plan NetDropRate on a first attempt, or a scripted
//     FaultNetDrop event) loses the blocks sent to one worker once; the
//     injector retransmits them through the wrapped transport — real
//     repeated bytes on a wire transport — and charges one retransmit
//     round-trip of stall. Drops fire at most once per (stage, worker) per
//     attempt.
//   - A delay (scripted FaultNetDelay) stalls the stage's first collective
//     by DelaySec; purely a model charge.
type netFaultTransport struct {
	inner Transport
	c     *Cluster

	// mu guards the one-shot bookkeeping below. stage/attempt identify the
	// stage attempt the bookkeeping belongs to; a new attempt resets it.
	mu        sync.Mutex
	stage     int
	attempt   int
	dropFired map[int]bool
	delayDone bool
}

func (t *netFaultTransport) Name() string { return t.inner.Name() }

func (t *netFaultTransport) Close() error { return t.inner.Close() }

// decide computes the injector's verdict for one collective reaching dests
// (alive workers, ascending): the partitioned worker to fail on (-1 for
// none), the workers whose transfer is dropped this time, and the delay to
// stall.
func (t *netFaultTransport) decide(stage int, dests []int) (partition int, drops []int, delaySec float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	attempt := int(t.c.curAttempt.Load())
	if t.stage != stage || t.attempt != attempt {
		t.stage, t.attempt = stage, attempt
		t.dropFired = nil
		t.delayDone = false
	}

	plan := t.c.cfg.Faults
	t.c.faultMu.Lock()
	armed := make([]FaultEvent, len(t.c.netArmed))
	copy(armed, t.c.netArmed)
	t.c.faultMu.Unlock()

	partition = -1
	planPart := func(w int) bool {
		if plan.NetPartitionStage > 0 && stage < plan.NetPartitionStage {
			return false
		}
		for _, p := range plan.NetPartition {
			if p == w {
				return true
			}
		}
		return false
	}
	// Armed events were selected for the current BeginStage attempt, but the
	// collectives of a stage may carry a different stage index than the
	// arming one; match the event's own stage so nothing fires twice.
	armedKind := func(w int, k FaultKind) bool {
		for _, ev := range armed {
			if ev.Worker == w && ev.Kind == k && ev.Stage == stage {
				return true
			}
		}
		return false
	}
	for _, w := range dests {
		if partition < 0 && (planPart(w) || armedKind(w, FaultNetPartition)) {
			partition = w
			continue
		}
		if t.dropFired[w] {
			continue
		}
		dropped := armedKind(w, FaultNetDrop) ||
			(attempt == 0 && plan.NetDropRate > 0 && hashUnit(plan.Seed^netDropSalt, stage, w) < plan.NetDropRate)
		if dropped {
			if t.dropFired == nil {
				t.dropFired = make(map[int]bool)
			}
			t.dropFired[w] = true
			drops = append(drops, w)
		}
	}
	if !t.delayDone {
		for _, ev := range armed {
			if ev.Kind == FaultNetDelay && ev.Stage == stage {
				delaySec += ev.DelaySec
			}
		}
		t.delayDone = true
	}
	return partition, drops, delaySec
}

// charge records the injector's non-fatal verdicts against the model: the
// delay and one retransmit round-trip (the configured per-shuffle latency)
// per drop.
func (t *netFaultTransport) charge(ctx context.Context, drops []int, delaySec float64) {
	c := t.c
	for range drops {
		c.charge(ctx, Snapshot{NetDropsInjected: 1, StallSec: c.cfg.ShuffleLatencySec})
		c.Metrics().Counter("fault.net.drops").Inc()
	}
	if delaySec > 0 {
		c.charge(ctx, Snapshot{NetDelaysInjected: 1, StallSec: delaySec})
		c.Metrics().Counter("fault.net.delays").Inc()
	}
}

// destSet lists the distinct destination workers of a transfer set,
// ascending.
func destSet(xfers []BlockXfer) []int {
	seen := make(map[int]bool, 4)
	for _, x := range xfers {
		seen[x.To] = true
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

func (t *netFaultTransport) Scatter(ctx context.Context, op string, stage int, xfers []BlockXfer) (Wire, error) {
	partition, drops, delay := t.decide(stage, destSet(xfers))
	if partition >= 0 {
		return Wire{}, &PeerDown{Worker: partition, Err: errInjectedPartition}
	}
	w, err := t.inner.Scatter(ctx, op, stage, xfers)
	if err != nil {
		return w, err
	}
	t.charge(ctx, drops, delay)
	for _, d := range drops {
		var again []BlockXfer
		for _, x := range xfers {
			if x.To == d {
				again = append(again, x)
			}
		}
		rw, err := t.inner.Scatter(ctx, op, stage, again)
		w.add(rw)
		if err != nil {
			return w, err
		}
	}
	return w, nil
}

func (t *netFaultTransport) Ring(ctx context.Context, op string, stage int, blocks []BlockXfer, hops []int) (Wire, error) {
	partition, drops, delay := t.decide(stage, hops)
	if partition >= 0 {
		return Wire{}, &PeerDown{Worker: partition, Err: errInjectedPartition}
	}
	w, err := t.inner.Ring(ctx, op, stage, blocks, hops)
	if err != nil {
		return w, err
	}
	t.charge(ctx, drops, delay)
	for _, d := range drops {
		// The hop lost its copy; re-send the blocks to it point-to-point.
		again := make([]BlockXfer, len(blocks))
		copy(again, blocks)
		for i := range again {
			again[i].To = d
		}
		rw, err := t.inner.Scatter(ctx, op, stage, again)
		w.add(rw)
		if err != nil {
			return w, err
		}
	}
	return w, nil
}

func (t *netFaultTransport) Collect(ctx context.Context, stage int, workers []int) (Wire, error) {
	partition, drops, delay := t.decide(stage, workers)
	if partition >= 0 {
		return Wire{}, &PeerDown{Worker: partition, Err: errInjectedPartition}
	}
	w, err := t.inner.Collect(ctx, stage, workers)
	if err != nil {
		return w, err
	}
	t.charge(ctx, drops, delay)
	for _, d := range drops {
		rw, err := t.inner.Collect(ctx, stage, []int{d})
		w.add(rw)
		if err != nil {
			return w, err
		}
	}
	return w, nil
}
