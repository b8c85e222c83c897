package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/workload"
)

// SubmitRequest is the POST /v1/jobs body. Only registry workloads are
// submittable over HTTP; programmatic jobs are an in-process API.
type SubmitRequest struct {
	Tenant      string             `json:"tenant"`
	Workload    string             `json:"workload"`
	Params      map[string]float64 `json:"params,omitempty"`
	Priority    int                `json:"priority,omitempty"`
	DeadlineSec float64            `json:"deadline_sec,omitempty"`
}

// OutputSummary describes one result grid without shipping its blocks:
// enough for a client to sanity-check a result (and for small outputs, the
// dense cells themselves).
type OutputSummary struct {
	Rows int     `json:"rows"`
	Cols int     `json:"cols"`
	NNZ  int     `json:"nnz"`
	Sum  float64 `json:"sum"`
	// Data is the row-major dense content, included only when the grid has
	// at most maxInlineCells cells.
	Data []float64 `json:"data,omitempty"`
}

const maxInlineCells = 4096

// JobResponse is the job payload for submit/status/cancel responses; Outputs
// is populated for terminal jobs when the result is requested.
type JobResponse struct {
	JobStatus
	Outputs map[string]OutputSummary `json:"outputs,omitempty"`
}

type errorResponse struct {
	Error         string  `json:"error"`
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs            submit a registry workload
//	GET    /v1/jobs            list jobs (?tenant= and ?state= filters)
//	GET    /v1/jobs/{id}       job status (?include=result adds output summaries;
//	                           410 once the result's grids were evicted)
//	GET    /v1/jobs/{id}/trace Chrome-trace JSON from the flight recorder
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/stats           service statistics
//	GET    /v1/slo             per-tenant rolling SLO windows and burn rates
//	GET    /v1/workloads       registered workloads
//	GET    /metrics            Prometheus text-format exposition
//	GET    /healthz            liveness (503 while draining)
//
// Every request is logged through the service logger (method, path, status,
// duration) at debug level, with non-2xx responses at info.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.SLO())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, s.opts.Metrics.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_, _ = w.Write(buf.Bytes()) // fails only when the scraper has gone away
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		type wl struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		}
		var list []wl
		for _, name := range s.Registry().Names() {
			e, _ := s.Registry().Lookup(name)
			list = append(list, wl{Name: e.Name, Description: e.Description})
		}
		writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s.logRequests(mux)
}

// statusRecorder captures the response code for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// logRequests wraps the API mux with structured request logging.
func (s *Service) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		attrs := []any{
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"duration_sec", time.Since(start).Seconds(), "remote", r.RemoteAddr,
		}
		if rec.status >= 400 {
			s.logger.Info("http request", attrs...)
		} else {
			s.logger.Debug("http request", attrs...)
		}
	})
}

// handleList serves GET /v1/jobs: all known jobs, optionally filtered by
// ?tenant= and ?state=.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	state := State(r.URL.Query().Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown state %q", state)})
		return
	}
	jobs := s.ListJobs(r.URL.Query().Get("tenant"), state)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "count": len(jobs)})
}

// handleTrace serves GET /v1/jobs/{id}/trace: the flight recorder's span
// tree for the job as Chrome trace_event JSON (loadable in chrome://tracing
// and Perfetto).
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans, err := s.JobTrace(id)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrNotFinished):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	default: // evicted from the ring
		writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, spans)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, submitBodyBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.Workload == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "workload is required"})
		return
	}
	st, err := s.Submit(JobSpec{
		Tenant:   req.Tenant,
		Workload: req.Workload,
		Params:   workload.Params(req.Params),
		Priority: req.Priority,
		Deadline: time.Duration(req.DeadlineSec * float64(time.Second)),
	})
	if err != nil {
		var rej *Rejection
		if errors.As(err, &rej) {
			code := http.StatusTooManyRequests
			if !rej.Retryable {
				if rej.Reason == "service draining" {
					code = http.StatusServiceUnavailable
				} else {
					code = http.StatusForbidden
				}
			}
			if rej.RetryAfter > 0 {
				w.Header().Set("Retry-After", fmt.Sprintf("%d", int(rej.RetryAfter.Seconds())+1))
			}
			writeJSON(w, code, errorResponse{Error: rej.Error(), RetryAfterSec: rej.RetryAfter.Seconds()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, JobResponse{JobStatus: st})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Status(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	resp := JobResponse{JobStatus: st}
	if r.URL.Query().Get("include") == "result" && st.State == StateDone {
		res, err := s.Result(id)
		if err != nil { // a done job's one Result error: ErrResultEvicted
			writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
			return
		}
		resp.Outputs = make(map[string]OutputSummary, len(res.Grids))
		for name, g := range res.Grids {
			resp.Outputs[name] = summarize(g)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{JobStatus: st})
}

func summarize(g *matrix.Grid) OutputSummary {
	o := OutputSummary{Rows: g.Rows(), Cols: g.Cols(), NNZ: g.NNZ(), Sum: matrix.SumGrid(g)}
	if g.Rows()*g.Cols() <= maxInlineCells {
		o.Data = g.ToDense()
	}
	return o
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
