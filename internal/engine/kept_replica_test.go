package engine

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

// The kept-replica sessions cut every matrix at keptBlock on four workers:
// B's three block-columns sit on workers 0 to 2, A's two block-rows on 0 and
// 1, and the block-columns of A, C and X on all four.
const keptBlock = 32

var keptShapes = map[string][2]int{
	"A": {64, 100}, "B": {100, 96}, "C": {100, 160}, "E": {64, 100}, "G": {64, 64}, "X": {64, 100},
}

// keptBytes is the size of one of the kept-replica matrices.
func keptBytes(name string) int64 {
	return matrix.DenseMemBytes(keptShapes[name][0], keptShapes[name][1])
}

// keptSession binds the kept-replica matrices into a new engine.
func keptSession(t *testing.T, planner Planner, rewriter bool, cfg dist.Config) *Engine {
	t.Helper()
	e := New(planner, cfg, keptBlock)
	if rewriter {
		e.SetRewriter(rewrite.New())
	}
	names := make([]string, 0, len(keptShapes))
	for name := range keptShapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if err := e.Bind(name, workload.DenseRandom(int64(i+1), keptShapes[name][0], keptShapes[name][1], keptBlock)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// keptAToB is what broadcasting the hash-placed A to the holders of B's
// block-columns, workers 0 to 2, charges. A's block (bi, bj) is on worker
// (bi·4 + bj) mod 4 = bj, so its block-columns 0 to 2 go to the two
// receivers that do not own them and block-column 3, 4 wide and on worker 3,
// to all three: 2·(|A| − |A₃|) + 3·|A₃| = 104,448 B where 3·|A| is 153,600.
func keptAToB() int64 {
	a3 := matrix.DenseMemBytes(keptShapes["A"][0], 4)
	return 2*(keptBytes("A")-a3) + 3*a3
}

// keptVar is a Var leaf of one of the kept-replica matrices.
func keptVar(p *expr.Program, name string) expr.Ref {
	return p.Var(name, keptShapes[name][0], keptShapes[name][1], 1)
}

// keptMul is the program out = a %*% b.
func keptMul(out, a, b string) *expr.Program {
	p := expr.NewProgram()
	p.Assign(out, p.Mul(keptVar(p, a), keptVar(p, b)))
	return p
}

// keptRun runs p on e and on the Local reference ref, and requires out to
// come out bit-identical on both.
func keptRun(t *testing.T, e, ref *Engine, p *expr.Program, out, label string) Metrics {
	t.Helper()
	m, err := e.Run(p, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := ref.Run(p, nil); err != nil {
		t.Fatalf("%s on Local: %v", label, err)
	}
	got, _ := e.varGrid(out)
	want, _ := ref.varGrid(out)
	if d := matrix.BitDiff(got, want); d != "" {
		t.Errorf("%s: %s differs from Local at %s", label, out, d)
	}
	return m
}

// replicaReach is the reach of the session's (b) instance of name.
func replicaReach(t *testing.T, e *Engine, name string) []int {
	t.Helper()
	inst := e.vars[name].instances[dep.Broadcast]
	if inst == nil {
		t.Fatalf("the session keeps no %s(b)", name)
	}
	return inst.Reach()
}

// TestKeptReplicaReachesOnlyReaders runs S = A %*% B three times: the first
// run broadcasts A to the holders of B's block-columns only, each block to
// those that do not own it, and partitions B, keptAToB() + |B|, while its
// plan still estimates N·|A| + |B|;
// the session keeps A(b) with that reach beside the hash-placed A, and the
// later runs read it as it is and charge nothing. SystemML-S does the same
// in its first run, then sends A on from the kept replica every run to the
// same three workers, which hold it already, so only B's partition is
// charged, |B|, and keeps the replica it read. S is Local's bit for bit.
func TestKeptReplicaReachesOnlyReaders(t *testing.T) {
	for _, rw := range []bool{false, true} {
		e := keptSession(t, DMac, rw, testConfig())
		ref := keptSession(t, Local, rw, testConfig())
		p := keptMul("S", "A", "B")
		plan, err := e.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		if est, want := plan.TotalCommBytes(), 4*keptBytes("A")+keptBytes("B"); est != want {
			t.Errorf("rewriter %v: the plan estimates %d B, want N·|A| + |B| = %d", rw, est, want)
		}
		for run := 1; run <= 3; run++ {
			m := keptRun(t, e, ref, p, "S", fmt.Sprintf("rewriter %v, run %d", rw, run))
			want := int64(0)
			if run == 1 {
				want = keptAToB() + keptBytes("B")
			}
			if m.CommBytes != want {
				t.Errorf("rewriter %v, run %d charged %d B, want %d", rw, run, m.CommBytes, want)
			}
			if got := replicaReach(t, e, "A"); !slices.Equal(got, []int{0, 1, 2}) {
				t.Errorf("rewriter %v, run %d: the session's A(b) reaches %v, want [0 1 2]", rw, run, got)
			}
		}

		e = keptSession(t, SystemMLS, rw, testConfig())
		var first *dist.DistMatrix
		for run := 1; run <= 3; run++ {
			m := keptRun(t, e, ref, p, "S", fmt.Sprintf("SystemML-S, rewriter %v, run %d", rw, run))
			want := keptBytes("B")
			if run == 1 {
				want = keptAToB() + keptBytes("B")
			}
			if m.CommBytes != want {
				t.Errorf("SystemML-S, rewriter %v, run %d charged %d B, want %d", rw, run, m.CommBytes, want)
			}
			if run == 1 {
				first = e.vars["A"].instances[dep.Broadcast]
			} else if e.vars["A"].instances[dep.Broadcast] != first {
				t.Errorf("SystemML-S, rewriter %v, run %d replaced the kept A(b) it sent A on from", rw, run)
			}
		}
	}
}

// TestKeptReplicaOverTCP runs S = A %*% B twice over a loopback TCP data
// plane: the first run rings A to the three workers holding B's
// block-columns, each block to those that do not own it, and charges what
// the in-process plane does, keptAToB() + |B|, and the second
// reads the replica the session kept and sends nothing.
func TestKeptReplicaOverTCP(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		w := transport.NewWorker(transport.WorkerConfig{})
		a, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = a.String()
	}
	e := keptSession(t, DMac, false, testConfig())
	defer e.Close()
	e.Cluster().SetTransport(transport.NewTCP(transport.Config{Addrs: addrs, DialTimeoutSec: 0.5, IOTimeoutSec: 2}))
	ref := keptSession(t, Local, false, testConfig())
	p := keptMul("S", "A", "B")
	m := keptRun(t, e, ref, p, "S", "run 1")
	if want := keptAToB() + keptBytes("B"); m.CommBytes != want || m.WireBytes <= m.CommBytes {
		t.Errorf("run 1 charged %d B and sent %d B, want %d charged and more sent", m.CommBytes, m.WireBytes, want)
	}
	if m = keptRun(t, e, ref, p, "S", "run 2"); m.CommBytes != 0 || m.WireBytes != 0 || m.WireFrames != 0 {
		t.Errorf("run 2 charged %d B and sent %d B in %d frames, want none", m.CommBytes, m.WireBytes, m.WireFrames)
	}
}

// TestKeptReplicaTooNarrowIsRebroadcast: after S = A %*% B has kept A(b) on
// workers 0 to 2, T = A %*% C reads A next to C's five block-columns, on all
// four workers. The run drops the narrow replica and plans again, so it
// broadcasts A from the hash-placed instance to all four, each block to the
// three that do not own it, 3·|A| and nothing else (C(c) is the session's from W = E %*% C), and keeps that
// replica.
// U = A + A extracts A(r) from the narrow replica on workers 0 and 1, within
// its reach, and charges nothing; U = A + X, X(c) the session's from
// Z = G %*% X, would extract A(c) on all four: its run drops the replica too
// and partitions A instead, |A|. Y = A, S = A %*% B would keep A(b) as Y's
// only instance, which must be everywhere: its run drops the narrow replica
// and broadcasts A to all four workers, 3·|A|. No run meets the receiver
// check of Multiply or Extract, and every result is Local's.
func TestKeptReplicaTooNarrowIsRebroadcast(t *testing.T) {
	for _, rw := range []bool{false, true} {
		e := keptSession(t, DMac, rw, testConfig())
		ref := keptSession(t, Local, rw, testConfig())
		keptRun(t, e, ref, keptMul("W", "E", "C"), "W", "W = E %*% C")
		keptRun(t, e, ref, keptMul("S", "A", "B"), "S", "S = A %*% B")
		tr := obs.NewTracer()
		e.SetObserver(tr, nil)
		m := keptRun(t, e, ref, keptMul("T", "A", "C"), "T", fmt.Sprintf("rewriter %v: T = A %%*%% C", rw))
		if want := 3 * keptBytes("A"); m.CommBytes != want {
			t.Errorf("rewriter %v: T = A %%*%% C charged %d B, want 3·|A| = %d", rw, m.CommBytes, want)
		}
		var rings []int64
		for _, s := range tr.Spans() {
			if s.Cat == "comm" {
				r, _ := s.Attr("replicas")
				rings = append(rings, r.Int)
			}
		}
		if !slices.Equal(rings, []int64{4}) {
			t.Errorf("rewriter %v: T = A %%*%% C made comm events with replicas %v, want one broadcast to 4", rw, rings)
		}
		if got := replicaReach(t, e, "A"); got != nil {
			t.Errorf("rewriter %v: the session's A(b) reaches %v after T, want every worker", rw, got)
		}

		e = keptSession(t, DMac, rw, testConfig())
		keptRun(t, e, ref, keptMul("Z", "G", "X"), "Z", "Z = G %*% X")
		keptRun(t, e, ref, keptMul("S", "A", "B"), "S", "S = A %*% B")
		p := expr.NewProgram()
		a := keptVar(p, "A")
		p.Assign("U", p.Add(a, a))
		if m = keptRun(t, e, ref, p, "U", fmt.Sprintf("rewriter %v: U = A + A", rw)); m.CommBytes != 0 {
			t.Errorf("rewriter %v: U = A + A charged %d B, want 0", rw, m.CommBytes)
		}
		if got := replicaReach(t, e, "A"); !slices.Equal(got, []int{0, 1, 2}) {
			t.Errorf("rewriter %v: the session's A(b) reaches %v after U = A + A, want [0 1 2]", rw, got)
		}
		p = expr.NewProgram()
		p.Assign("U", p.Add(keptVar(p, "A"), keptVar(p, "X")))
		m = keptRun(t, e, ref, p, "U", fmt.Sprintf("rewriter %v: U = A + X", rw))
		if want := keptBytes("A"); m.CommBytes != want {
			t.Errorf("rewriter %v: U = A + X charged %d B, want |A| = %d", rw, m.CommBytes, want)
		}
		if _, ok := e.vars["A"].instances[dep.Broadcast]; ok {
			t.Errorf("rewriter %v: the session still holds A(b) after U = A + X", rw)
		}

		e = keptSession(t, DMac, rw, testConfig())
		keptRun(t, e, ref, keptMul("S", "A", "B"), "S", "S = A %*% B")
		p = expr.NewProgram()
		a = keptVar(p, "A")
		p.Assign("Y", a)
		p.Assign("S", p.Mul(a, keptVar(p, "B")))
		m = keptRun(t, e, ref, p, "Y", fmt.Sprintf("rewriter %v: Y = A, S = A %%*%% B", rw))
		if want := 3 * keptBytes("A"); m.CommBytes != want {
			t.Errorf("rewriter %v: Y = A, S = A %%*%% B charged %d B, want 3·|A| = %d", rw, m.CommBytes, want)
		}
		if got := replicaReach(t, e, "Y"); got != nil || len(e.vars["Y"].instances) != 1 {
			t.Errorf("rewriter %v: Y holds %v, its A(b) reaching %v; want only A(b), on every worker", rw, e.VarSchemes("Y"), got)
		}
	}
}

// TestKeptReplicaAfterWorkerLoss loses workers around a kept replica. A kill
// at the start of the second run of S = A %*% B takes worker 0, a receiver
// of the kept A(b), or worker 3, which holds no copy; a kill in stage 3 of
// Y = A %*% B, s = sum(Y) with a snapshot after every stage restores A(b) from
// the snapshot of stage 2, and the replica comes back complete: the session
// keeps it on every worker. Every result is bit-identical to a fault-free
// engine's.
func TestKeptReplicaAfterWorkerLoss(t *testing.T) {
	for _, rw := range []bool{false, true} {
		clean := keptSession(t, DMac, rw, testConfig())
		s := keptMul("S", "A", "B")
		p := expr.NewProgram()
		y := p.Mul(keptVar(p, "A"), keptVar(p, "B"))
		p.Assign("Y", y)
		p.Sum("s", y)
		for _, prog := range []*expr.Program{s, s, p, p} {
			if _, err := clean.Run(prog, nil); err != nil {
				t.Fatal(err)
			}
		}
		if plan, err := keptSession(t, DMac, rw, testConfig()).Plan(p); err != nil || plan.Stages != 3 {
			t.Fatalf("rewriter %v: Y's plan has %v stages (%v), want 3", rw, plan, err)
		}

		for _, worker := range []int{0, 3} {
			cfg := testConfig()
			cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{{Run: 2, Stage: 1, Worker: worker, Kind: dist.FaultKillBoundary}}}
			e := keptSession(t, DMac, rw, cfg)
			var m Metrics
			for run := 1; run <= 2; run++ {
				var err error
				if m, err = e.Run(s, nil); err != nil {
					t.Fatalf("rewriter %v, kill %d, run %d: %v", rw, worker, run, err)
				}
			}
			if m.Retries != 1 {
				t.Errorf("rewriter %v, kill %d: %d retries, want 1", rw, worker, m.Retries)
			}
			keptSame(t, e, clean, "S", fmt.Sprintf("rewriter %v, kill %d", rw, worker))
		}

		cfg := testConfig()
		cfg.Faults = dist.FaultPlan{Events: []dist.FaultEvent{{Run: 1, Stage: 3, Worker: 1, Kind: dist.FaultKillBoundary}}}
		e := keptSession(t, DMac, rw, cfg)
		reg := obs.NewRegistry()
		e.SetObserver(nil, reg)
		if err := e.SetCheckpoint(t.TempDir(), CheckpointPolicy{Interval: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(p, nil); err != nil {
			t.Fatalf("rewriter %v, restored run: %v", rw, err)
		}
		if n := reg.Counter("ckpt.restore.count").Value(); n != 1 {
			t.Errorf("rewriter %v: %d restores, want 1", rw, n)
		}
		if got := replicaReach(t, e, "A"); got != nil {
			t.Errorf("rewriter %v: the restored A(b) reaches %v, want every worker", rw, got)
		}
		keptSame(t, e, clean, "Y", fmt.Sprintf("rewriter %v, restored run", rw))
		if _, err := e.Run(p, nil); err != nil {
			t.Fatalf("rewriter %v, run after the restore: %v", rw, err)
		}
		keptSame(t, e, clean, "Y", fmt.Sprintf("rewriter %v, run after the restore", rw))
	}
}

// keptSame requires e's variable name to be the fault-free clean's bit for
// bit.
func keptSame(t *testing.T, e, clean *Engine, name, label string) {
	t.Helper()
	got, _ := e.varGrid(name)
	want, _ := clean.varGrid(name)
	if d := matrix.BitDiff(got, want); d != "" {
		t.Errorf("%s: %s differs from the fault-free run at %s", label, name, d)
	}
}
