// dmacserve runs the multi-tenant DMac job service: an HTTP JSON API over a
// pool of reusable engines with per-tenant admission control and quotas.
//
// Usage:
//
//	dmacserve -addr :8421 -slots 4 -workers 4
//	curl -s localhost:8421/v1/jobs -d '{"tenant":"alice","workload":"pagerank","params":{"nodes":256,"iters":5}}'
//	curl -s localhost:8421/v1/jobs/job-000001?include=result
//	curl -s localhost:8421/v1/stats
//	curl -s localhost:8421/metrics          # Prometheus text exposition
//	curl -s localhost:8421/v1/slo           # per-tenant burn rates
//	curl -s localhost:8421/v1/jobs/job-000001/trace > trace.json
//
// Logs are structured JSON on stderr (one object per line). -debug-addr
// serves net/http/pprof on a separate listener for live profiling.
//
// SIGINT/SIGTERM trigger a graceful drain: admission stops immediately,
// in-flight and queued jobs get -drain-timeout to finish, then the queue is
// shed and running jobs are canceled (engines started with -checkpoint-dir
// have flushed per-stage snapshots of whatever was interrupted). The
// -metrics-out dump — a JSON object with the final metrics snapshot and SLO
// snapshot — is written on every exit path, clean or forced or errored, so
// a crash-looping deploy still leaves evidence behind.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/obs"
	"dmac/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8421", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once serving (for scripted clients)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	plannerName := flag.String("planner", "dmac", "engine: dmac | systemml | local")
	workers := flag.Int("workers", 4, "simulated cluster workers per engine slot")
	workerAddrs := flag.String("worker-addrs", "", "comma-separated dmacworker addresses; when set, the data plane is real TCP to these workers (list order is worker index) and -workers is ignored")
	blockSize := flag.Int("block", 64, "block size for served jobs")
	slots := flag.Int("slots", 2, "engine pool size = max concurrently running jobs")
	queueCap := flag.Int("queue", 32, "admission queue capacity across all tenants")
	maxConcurrent := flag.Int("tenant-concurrent", 2, "default per-tenant concurrent-job quota")
	maxQueued := flag.Int("tenant-queued", 8, "default per-tenant queued-job quota")
	maxBytes := flag.Int64("tenant-bytes", 256<<20, "default per-tenant estimated-memory quota for running jobs")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-job run deadline")
	drainTimeout := flag.Duration("drain-timeout", 20*time.Second, "how long a shutdown waits for queued and running jobs")
	noRewrite := flag.Bool("no-rewrite", false, "disable the algebraic rewrite pass that every engine slot runs before planning")
	checkpointDir := flag.String("checkpoint-dir", "", "per-slot per-stage checkpoints under this directory (forced shutdowns leave flushed snapshots)")
	metricsPath := flag.String("metrics-out", "", "write the final metrics + SLO dump to this path on exit (every exit path)")
	sloObjective := flag.Float64("slo-objective", 0, "default per-tenant SLO good-job objective, e.g. 0.99 (0 uses the built-in default)")
	sloLatency := flag.Float64("slo-latency", 0, "default per-tenant end-to-end latency objective in seconds (0 uses the built-in default)")
	flightJobs := flag.Int("flight-jobs", 0, "flight recorder capacity in completed job traces (0 uses the built-in default)")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("dmacserve: bad -log-level", "value", *logLevel)
		return 1
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var planner engine.Planner
	switch *plannerName {
	case "dmac":
		planner = engine.DMac
	case "systemml":
		planner = engine.SystemMLS
	case "local":
		planner = engine.Local
	default:
		logger.Error("unknown planner", "planner", *plannerName)
		return 1
	}

	cluster := dist.ScaledConfig(*workers, 8)
	if *workerAddrs != "" {
		cluster.WorkerAddrs = strings.Split(*workerAddrs, ",")
		logger.Info("wire data plane enabled", "workers", len(cluster.WorkerAddrs))
	}

	registry := obs.NewRegistry()
	svc, err := serve.NewService(serve.Options{
		Planner:            planner,
		Cluster:            cluster,
		BlockSize:          *blockSize,
		Slots:              *slots,
		QueueCapacity:      *queueCap,
		DefaultQuota:       serve.TenantQuota{MaxConcurrent: *maxConcurrent, MaxQueued: *maxQueued, MaxBytes: *maxBytes},
		DefaultDeadline:    *deadline,
		Metrics:            registry,
		CheckpointDir:      *checkpointDir,
		DisableRewrite:     *noRewrite,
		Logger:             logger,
		SLO:                serve.SLOConfig{Objective: *sloObjective, LatencySec: *sloLatency},
		FlightRecorderJobs: *flightJobs,
	})
	if err != nil {
		logger.Error("dmacserve startup failed", "err", err.Error())
		return 1
	}
	// From here on, every return path dumps the final metrics + SLO snapshot.
	defer dumpMetrics(*metricsPath, registry, svc, logger)

	if *debugAddr != "" {
		// pprof on its own mux and listener so profiling is never exposed on
		// the service port (and the service mux stays pattern-only).
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "err", err.Error())
			return 1
		}
		logger.Info("pprof serving", "addr", dln.Addr().String())
		go func() { _ = http.Serve(dln, dbg) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err.Error())
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("addr-file write failed", "path", *addrFile, "err", err.Error())
			return 1
		}
	}
	srv := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("dmacserve serving", "addr", ln.Addr().String(), "planner", planner.String(),
		"slots", *slots, "workers", *workers, "block", *blockSize)

	exit := 0
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-errCh:
		// Serve only errors before Shutdown (bad listener, port stolen):
		// still drain the pool and dump metrics before exiting nonzero.
		logger.Error("server failed, draining", "err", err.Error())
		exit = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Stop(ctx); err != nil {
		logger.Warn("forced drain", "err", err.Error())
	} else {
		logger.Info("drained cleanly")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "err", err.Error())
	}
	<-errCh

	st := svc.Stats()
	logger.Info("dmacserve exit",
		"submitted", st.Submitted, "completed", st.Completed, "failed", st.Failed,
		"canceled", st.Canceled, "rejected", st.Rejected)
	return exit
}

// dumpMetrics writes the final observability dump: the full metrics registry
// snapshot plus the final per-tenant SLO snapshot, as one JSON object.
func dumpMetrics(path string, r *obs.Registry, svc *serve.Service, logger *slog.Logger) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		logger.Error("metrics-out failed", "path", path, "err", err.Error())
		return
	}
	defer f.Close()
	if err := svc.WriteFinalDump(f, r.Snapshot()); err != nil {
		logger.Error("metrics-out failed", "path", path, "err", err.Error())
		return
	}
	logger.Info("metrics dump written", "path", path)
}
