package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"time"
)

// ladderOps is how many ops each rung runs (a multiple of the served mix's
// three job kinds, so every rung sees the same jobs).
const ladderOps = 12

// probeReps is how many times a direct probe repeats; it reports the median.
const probeReps = 5

// rung is one step of the layer ladder: the workload's own program on an
// engine built with one more layer than the rung below.
type rung struct {
	name  string
	units []*App
	eng   *Eng // nil for the serve rung
	svc   *Svc
	// rotate: the engine checkpoints, so its directory is swapped for a fresh
	// one after every op, as in the timed phase.
	rotate bool
	lat    []float64
	stats  OpStats
	done   []JobDone
}

// units returns the workload's programs at a block size (0: its own) and
// that block size: the iteration program, or the served mix's three jobs at
// the first hot seed.
func (w *workloadDef) units(cfg runConfig, bs int) ([]*App, int, error) {
	if w.jobs == nil {
		app := w.gen(cfg.Seed, cfg.Smoke, bs)
		return []*App{app}, app.BlockSize, nil
	}
	own, mix := w.jobs(cfg.Smoke)
	bs = cmp.Or(bs, own)
	var apps []*App
	for _, j := range mix {
		params := map[string]float64{"seed": 1}
		for k, v := range j.Params {
			params[k] = v
		}
		app, err := buildJob(j.Workload, bs, params)
		if err != nil {
			return nil, 0, err
		}
		apps = append(apps, app)
	}
	return apps, bs, nil
}

// ladder measures the layers from outside: every rung runs the workload's
// own program through engine construction and Run only, the rungs take
// turns op by op so drift in the host hits them alike, and the narrow entry
// points (rewrite, plan, grid I/O, job builders) are timed directly.
func ladder(w *workloadDef, cfg runConfig, tr *Tracer, parent SpanID, res *Result) error {
	vals := res.Values
	ops := ladderOps
	if cfg.Smoke {
		ops = 3
	}

	// Each op of the served mix starts from a fresh session, as a served
	// job does; an iteration program keeps its session from op to op.
	fresh := w.jobs != nil
	own, bs, err := w.units(cfg, 0)
	if err != nil {
		return err
	}
	oneBlock := 4096 // the registry's largest dimension
	if !fresh {
		oneBlock = own[0].maxDim()
	}
	whole, _, err := w.units(cfg, oneBlock)
	if err != nil {
		return err
	}

	dirs := newCkptDirs(cfg.WorkDir)
	defer os.RemoveAll(dirs.base)
	specs := []struct {
		name  string
		units []*App
		spec  EngineSpec
		on    bool
	}{
		{"matrix.kernel", whole, EngineSpec{Local: true, BlockSize: oneBlock}, true},
		{"sched.local", own, EngineSpec{Local: true, BlockSize: bs}, true},
		{"dist.inproc", own, EngineSpec{BlockSize: bs}, true},
		{"obs.attached", own, EngineSpec{BlockSize: bs, Observe: true}, true},
		{"transport.wire", own, EngineSpec{BlockSize: bs, Wire: true}, w.wire},
		{"engine.ckpt", own, EngineSpec{BlockSize: bs, CkptDir: dirs.next()}, w.ckpt},
	}
	var rungs []*rung
	byName := map[string]*rung{}
	defer func() {
		for _, r := range rungs {
			if r.eng != nil {
				r.eng.Close()
			}
			if r.svc != nil {
				r.svc.Stop()
			}
		}
	}()
	for _, s := range specs {
		if !s.on {
			continue
		}
		eng, err := newEng(s.spec)
		if err != nil {
			return err
		}
		r := &rung{name: s.name, units: s.units, eng: eng, rotate: s.spec.CkptDir != ""}
		rungs = append(rungs, r)
		byName[s.name] = r
	}
	svc, err := newSvc(bs, 2)
	if err != nil {
		return err
	}
	serveRung := &rung{name: "serve.job", units: own, svc: svc}
	rungs = append(rungs, serveRung)
	byName[serveRung.name] = serveRung

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	op := func(r *rung, i int) (OpStats, JobDone, error) {
		u := r.units[i%len(r.units)]
		switch {
		case r.svc != nil && fresh:
			d, err := r.svc.Do(ctx, Job{Tenant: "ladder", Workload: u.Name, Params: u.Params})
			return OpStats{}, d, err
		case r.svc != nil:
			d, err := r.svc.Do(ctx, Job{Tenant: "ladder", App: u})
			return OpStats{}, d, err
		case fresh:
			st, err := r.eng.RunFresh(u)
			return st, JobDone{}, err
		}
		st, err := r.eng.Run(u)
		return st, JobDone{}, err
	}
	// Bind and warm every rung (first plan, initial partition, cache fill).
	for _, r := range rungs {
		sp := tr.Start("bench", r.name+".warm", parent)
		if r.eng != nil && !fresh {
			if err := r.eng.Bind(r.units[0].Inputs); err != nil {
				return err
			}
		}
		for i := 0; i < len(r.units); i++ {
			if _, _, err := op(r, i); err != nil {
				return fmt.Errorf("rung %s warm-up: %w", r.name, err)
			}
		}
		if r.eng != nil {
			r.eng.Observed()
		}
		tr.End(sp)
	}
	for i := 0; i < ops; i++ {
		for _, r := range rungs {
			sp := tr.Start("bench", r.name, parent)
			t := time.Now()
			st, d, err := op(r, i)
			r.lat = append(r.lat, time.Since(t).Seconds())
			tr.End(sp)
			if err != nil {
				return fmt.Errorf("rung %s op %d: %w", r.name, i, err)
			}
			r.stats.add(st)
			r.done = append(r.done, d)
			if r.rotate {
				if err := dirs.rotate(r.eng); err != nil {
					return err
				}
			}
		}
	}

	// opS is a rung's median op time, 0 for a rung this workload skips.
	opS := func(name string) float64 {
		if r := byName[name]; r != nil {
			return median(r.lat)
		}
		return 0
	}
	n := float64(ops)
	kernel, inproc := byName["matrix.kernel"], byName["dist.inproc"]
	kernelS, localS, inprocS := opS("matrix.kernel"), opS("sched.local"), opS("dist.inproc")
	vals["matrix.kernel_op_s"] = kernelS
	vals["sched.local_op_s"] = localS
	vals["dist.inproc_op_s"] = inprocS
	vals["transport.wire_op_s"] = opS("transport.wire")
	vals["engine.ckpt_op_s"] = opS("engine.ckpt")
	vals["serve.job_op_s"] = opS("serve.job")
	vals["matrix.kernel_gflops"] = ratio(kernel.stats.Flops/1e9, sum(kernel.lat))
	vals["sched.speedup"] = ratio(kernelS, localS)
	vals["dist.overhead_s"] = added(inprocS, localS)
	vals["serve.added_s"] = added(opS("serve.job"), inprocS)
	if r := byName["transport.wire"]; r != nil {
		vals["transport.wire_added_s"] = added(median(r.lat), inprocS)
		vals["transport.wire_mbps"] = ratio(float64(r.stats.WireBytes)/n/1e6, vals["transport.wire_added_s"])
	}
	if r := byName["engine.ckpt"]; r != nil {
		vals["engine.ckpt_added_s"] = added(median(r.lat), inprocS)
	}
	spans, tasks := byName["obs.attached"].eng.Observed()
	vals["obs.spans_per_op"] = float64(spans) / n
	vals["sched.block_tasks_per_op"] = float64(tasks) / n
	vals["obs.attach_overhead_share"] = ratio(added(opS("obs.attached"), inprocS), inprocS)

	// The cost model against the clock, per op of the in-process rung.
	st := inproc.stats
	vals["engine.stage_wall_s"] = st.StageWallS / n
	vals["engine.run_overhead_s"] = added(sum(inproc.lat)/n, st.StageWallS/n)
	vals["dist.comm_events"] = float64(st.CommEvents) / n
	vals["dist.shuffles"] = float64(st.Shuffles) / n
	vals["dist.broadcasts"] = float64(st.Broadcasts) / n
	vals["dist.flops"] = st.Flops / n
	vals["dist.model_compute_s"] = st.ModelComputeS / n
	vals["dist.model_network_s"] = st.ModelNetworkS / n
	vals["dist.model_s"] = st.ModelS / n
	vals["dist.model_over_wall"] = ratio(st.ModelS, sum(inproc.lat))

	// The service as the ladder's client saw it. serve_mix reports these
	// from its own timed jobs instead.
	if !fresh {
		var submit, queue, running, overhead []float64
		for i, d := range serveRung.done {
			submit = append(submit, d.SubmitS)
			queue = append(queue, d.QueueS)
			running = append(running, d.RunS)
			overhead = append(overhead, added(serveRung.lat[i], d.QueueS+d.RunS))
		}
		vals["serve.submit_s"] = median(submit)
		vals["serve.queue_wait_p50_s"] = median(queue)
		vals["serve.run_p50_s"] = median(running)
		vals["serve.overhead_p50_s"] = median(overhead)
		vals["serve.jobs_per_s"] = ratio(1, median(serveRung.lat))
		ss := svc.Stats()
		vals["serve.rejected"] = float64(ss.Rejected)
		vals["serve.plan_cache_hit_share"] = ratio(float64(ss.PlanHits), float64(ss.PlanHits+ss.PlanMisses))
	}

	sp := tr.Start("bench", "probes", parent)
	defer tr.End(sp)
	return probes(tr, sp, own, bs, vals)
}

// probes times the layers that have a narrow entry point of their own:
// the rewrite pass, plan generation, grid I/O and the registry's job
// builders. Over several units (the served mix) it reports the mean.
func probes(tr *Tracer, parent SpanID, units []*App, bs int, vals map[string]float64) error {
	eng, err := newEng(EngineSpec{BlockSize: bs})
	if err != nil {
		return err
	}
	defer eng.Close()
	var bytesMoved int64
	var writeS, readS float64
	n := float64(len(units))
	for _, u := range units {
		var rewriteS, planS, buildS []float64
		for rep := 0; rep < probeReps; rep++ {
			sp := tr.Start("bench", "rewrite.rewrite", parent)
			sec, decisions, err := rewriteProbe(u)
			tr.End(sp)
			if err != nil {
				return err
			}
			rewriteS = append(rewriteS, sec)
			sp = tr.Start("bench", "engine.plan", parent)
			stages, ops, sec, err := eng.PlanFresh(u)
			tr.End(sp)
			if err != nil {
				return err
			}
			planS = append(planS, sec)
			if rep == 0 {
				vals["rewrite.decisions"] += float64(decisions) / n
				vals["core.plan_stages"] += float64(stages) / n
				vals["core.plan_ops"] += float64(ops) / n
			}
			if u.Name != "" {
				sp = tr.Start("bench", "workload.build_"+u.Name, parent)
				t := time.Now()
				_, err := buildJob(u.Name, bs, u.Params)
				buildS = append(buildS, time.Since(t).Seconds())
				tr.End(sp)
				if err != nil {
					return err
				}
			}
		}
		vals["rewrite.rewrite_s"] += median(rewriteS) / n
		vals["engine.plan_s"] += median(planS) / n
		if u.Name != "" {
			vals["workload.build_"+u.Name+"_s"] = median(buildS)
		}
		sp := tr.Start("bench", "mio.write_read", parent)
		b, w, r, err := mioProbe(u)
		tr.End(sp)
		if err != nil {
			return err
		}
		bytesMoved, writeS, readS = bytesMoved+b, writeS+w, readS+r
	}
	vals["mio.write_mbps"] = ratio(float64(bytesMoved)/1e6, writeS)
	vals["mio.read_mbps"] = ratio(float64(bytesMoved)/1e6, readS)
	return nil
}
