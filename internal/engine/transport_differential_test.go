package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dmac/internal/core"
	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/matrix"
)

// TestEngineRecoversFromKilledTCPWorker mirrors the multi-process CI smoke in
// pure Go: a program runs warm over a real loopback TCP data plane, then one
// worker process dies (its endpoint closes, exactly what SIGKILL looks like
// from the coordinator), and the next run must still complete — lineage
// recovery removes the dead worker after the transport reports it down — with
// visible retries and a result equal to the fault-free local reference.
func TestEngineRecoversFromKilledTCPWorker(t *testing.T) {
	const bs = 4
	workers := make([]*transport.Worker, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		w := transport.NewWorker(transport.WorkerConfig{})
		a, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = a.String()
	}
	rng := rand.New(rand.NewSource(4242))
	prog, _ := core.RandomProgram(rng)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	data := denseLeafData(rng, prog, bs)

	ref := New(Local, dist.Config{Workers: 1, LocalParallelism: 2}, bs)
	defer ref.Close()
	// The engine's TCP data plane, with timeouts shorter than its defaults
	// so the dead worker is found quickly.
	e := New(DMac, dist.Config{Workers: len(addrs), LocalParallelism: 2}, bs)
	defer e.Close()
	e.Cluster().SetTransport(transport.NewTCP(transport.Config{Addrs: addrs, DialTimeoutSec: 0.5, IOTimeoutSec: 2}))
	for name, g := range data {
		if err := ref.Bind(name, g.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := e.Bind(name, g.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(prog, nil); err != nil {
		t.Fatalf("warm run over TCP: %v", err)
	}
	workers[0].Close()
	done := make(chan struct{})
	var m Metrics
	var runErr error
	go func() {
		m, runErr = e.Run(prog, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run after worker kill hung (recovery deadlock)")
	}
	if runErr != nil {
		t.Fatalf("run after worker kill: %v", runErr)
	}
	if m.Retries == 0 {
		t.Error("run after worker kill reported no retries")
	}
	if m.WireBytes == 0 {
		t.Error("run after worker kill measured no wire traffic")
	}
	for _, a := range prog.Assignments() {
		want, _ := ref.Grid(a.Name)
		got, ok := e.Grid(a.Name)
		if !ok || !matrix.GridEqual(got, want, 1e-9) {
			t.Errorf("output %s differs from local reference after recovery", a.Name)
		}
	}
}

// TestDifferentialTCPUnderChaos is the wire transport's differential
// acceptance gate: 40 random programs run on the DMac engine with a real
// loopback TCP data plane under the combined chaos regime — a scripted
// boundary kill, seeded block corruption, seeded network frame drops, and a
// scripted network delay — and every result must match the Local engine's
// fault-free reference within 1e-9. Recovery (stage retry, lineage
// re-partition, CRC quarantine, retransmit) has to heal everything; the
// measured wire traffic must be visible in the metrics.
func TestDifferentialTCPUnderChaos(t *testing.T) {
	const bs = 4
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
	faults := dist.FaultPlan{
		Seed:        31,
		CorruptRate: 0.25,
		NetDropRate: 0.2,
		Events: []dist.FaultEvent{
			{Stage: 1, Worker: 1, Attempt: 0, Kind: dist.FaultKillBoundary},
			{Stage: 2, Worker: 3, Attempt: 0, Kind: dist.FaultCorrupt},
			{Stage: 2, Worker: 2, Attempt: 0, Kind: dist.FaultNetDelay, DelaySec: 0.05},
		},
	}

	var wireBytes, retries int64
	var injected, detected, drops int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 9000))
		prog, _ := core.RandomProgram(rng)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
		data := denseLeafData(rng, prog, bs)

		run := func(planner Planner, cfg dist.Config) (map[string]*matrix.Grid, map[string]float64, Metrics) {
			e := New(planner, cfg, bs)
			defer e.Close()
			for name, g := range data {
				if err := e.Bind(name, g.Clone()); err != nil {
					t.Fatalf("seed %d %s: %v", seed, planner, err)
				}
			}
			var total Metrics
			for iter := 0; iter < 2; iter++ {
				m, err := e.Run(prog, nil)
				if err != nil {
					t.Fatalf("seed %d %s iter %d: %v", seed, planner, iter, err)
				}
				total.Add(m)
			}
			grids := map[string]*matrix.Grid{}
			scalars := map[string]float64{}
			for _, a := range prog.Assignments() {
				g, ok := e.Grid(a.Name)
				if !ok {
					t.Fatalf("seed %d %s: output %s missing", seed, planner, a.Name)
				}
				grids[a.Name] = g
			}
			for _, s := range prog.ScalarOuts() {
				v, ok := e.Scalar(s.Name)
				if !ok {
					t.Fatalf("seed %d %s: scalar %s missing", seed, planner, s.Name)
				}
				scalars[s.Name] = v
			}
			return grids, scalars, total
		}

		refGrids, refScalars, _ := run(Local, dist.Config{Workers: 1, LocalParallelism: 2})
		gotGrids, gotScalars, total := run(DMac, dist.Config{
			WorkerAddrs:      addrs,
			LocalParallelism: 2,
			Faults:           faults,
		})
		label := fmt.Sprintf("seed %d tcp/chaos", seed)
		for name, g := range refGrids {
			if !matrix.GridEqual(gotGrids[name], g, 1e-9) {
				t.Errorf("%s: output %s differs from local reference", label, name)
			}
		}
		for name, v := range refScalars {
			if d := gotScalars[name] - v; math.Abs(d) > 1e-9*(1+math.Abs(v)) {
				t.Errorf("%s: scalar %s = %v, local %v", label, name, gotScalars[name], v)
			}
		}
		// Wire traffic is measured, not modeled: it can sit below the model's
		// dense-payload charge when a block's encoding is sparse, and above it
		// from framing, acks and retransmits — but it can never be absent.
		if total.WireBytes == 0 || total.WireFrames == 0 {
			t.Errorf("%s: no measured wire traffic (%d B / %d frames)", label, total.WireBytes, total.WireFrames)
		}
		wireBytes += total.WireBytes
		retries += int64(total.Retries)
		injected += total.CorruptionsInjected
		detected += total.CorruptionsDetected
		drops += total.NetDropsInjected
	}
	if injected != detected {
		t.Errorf("corruptions injected %d != detected %d across seeds", injected, detected)
	}
	if injected == 0 {
		t.Error("chaos regime never injected a corruption across 40 seeds")
	}
	if retries == 0 {
		t.Error("chaos regime never forced a stage retry across 40 seeds")
	}
	if drops == 0 {
		t.Error("chaos regime never dropped a frame across 40 seeds")
	}
	if wireBytes == 0 {
		t.Error("no wire traffic measured across 40 seeds")
	}
}
