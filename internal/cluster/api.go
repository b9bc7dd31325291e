package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
)

// RegisterRequest is the POST /v1/cluster/workers body.
type RegisterRequest struct {
	URL string `json:"url"`
}

// ClusterHealth is the GET /healthz body: coordinator liveness plus a
// fleet roll-up.
type ClusterHealth struct {
	Status             string `json:"status"`
	Workers            int    `json:"workers"`
	ActiveWorkers      int    `json:"active_workers"`
	QuarantinedWorkers int    `json:"quarantined_workers,omitempty"`
	PointsInflight     int64  `json:"points_inflight"`
	Sweeps             int    `json:"sweeps"`
	CacheEntries       int    `json:"cache_entries"`
}

// routes registers the coordinator's API next to the routes the
// shell serves (GET /metrics, /debug/traces, /v1/metrics/query and
// /v1/alerts, and POST /v1/workloads, whose uploads StartSweep
// pre-ships to workers):
//
//	POST   /v1/cluster/workers      register (or reactivate) a worker
//	GET    /v1/cluster/workers      list workers with state and load
//	DELETE /v1/cluster/workers/{id} drain a worker (steals its points)
//	POST   /v1/sweeps               submit a sweep for distributed execution
//	GET    /v1/sweeps               list retained sweeps (summaries)
//	GET    /v1/sweeps/{id}          aggregated sweep status with points
//	GET    /healthz                 coordinator liveness + fleet summary
//	GET    /readyz                  readiness: accepting and has active workers
//	GET    /debug/traces/{id}       one trace, merged across coordinator and workers
//
// The shell's trace propagation middleware wraps the tree, so a POST
// /v1/sweeps carrying a traceparent header ties the whole distributed
// execution into the submitter's trace. With a tenants file every /v1/
// route needs a key, worker self-registration included (workers pass
// -join-api-key).
func (c *Coordinator) routes() {
	c.HandleFunc("POST /v1/cluster/workers", c.handleRegisterWorker)
	c.HandleFunc("GET /v1/cluster/workers", c.handleListWorkers)
	c.HandleFunc("DELETE /v1/cluster/workers/{id}", c.handleDrainWorker)
	c.HandleFunc("POST /v1/sweeps", c.handleStartSweep)
	c.HandleFunc("GET /v1/sweeps", c.handleListSweeps)
	c.HandleFunc("GET /v1/sweeps/{id}", c.handleSweepStatus)
	c.HandleFunc("GET /healthz", c.handleHealthz)
	c.HandleFunc("GET /readyz", c.handleReadyz)
	c.HandleFunc("GET /debug/traces/{id}", c.handleMergedTrace)
}

func (c *Coordinator) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad register body: %v", err))
		return
	}
	if req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "register body needs a url field")
		return
	}
	st, created, err := c.RegisterWorker(r.Context(), req.URL)
	if err != nil {
		var probeFailed bool
		var we *workerError
		if errors.As(err, &we) {
			probeFailed = true
		}
		if probeFailed || errors.Is(err, context.DeadlineExceeded) {
			server.WriteError(w, http.StatusBadGateway, err.Error())
		} else {
			server.WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	server.WriteJSON(w, code, st)
}

func (c *Coordinator) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

func (c *Coordinator) handleDrainWorker(w http.ResponseWriter, r *http.Request) {
	st, ok := c.DrainWorker(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no worker %q", r.PathValue("id")))
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleStartSweep(w http.ResponseWriter, r *http.Request) {
	var req server.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad sweep body: %v", err))
		return
	}
	st, err := c.StartSweep(r.Context(), req)
	if err != nil {
		switch {
		case !c.accepting.Load():
			server.WriteError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, errDurability):
			server.WriteError(w, http.StatusInternalServerError, err.Error())
		default:
			server.WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	code := http.StatusAccepted
	if st.State == "done" { // every point cached at submit
		code = http.StatusOK
	}
	server.WriteJSON(w, code, st)
}

func (c *Coordinator) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": c.SweepStatuses()})
}

func (c *Coordinator) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.SweepStatusByID(r.PathValue("id"), true)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no sweep %q", r.PathValue("id")))
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	h := ClusterHealth{
		Status:       "ok",
		Workers:      len(c.workers),
		Sweeps:       len(c.sweeps),
		CacheEntries: c.Cache().Len(),
	}
	for _, wk := range c.workers {
		switch wk.state {
		case WorkerActive:
			h.ActiveWorkers++
		case WorkerQuarantined:
			h.QuarantinedWorkers++
		}
	}
	c.mu.Unlock()
	h.PointsInflight = c.mInflight.Value()
	server.WriteJSON(w, http.StatusOK, h)
}

// handleReadyz reports whether the coordinator can usefully accept a
// sweep right now: it is not draining and at least one worker is
// active. Liveness stays on /healthz, which answers 200 regardless.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !c.accepting.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	c.mu.Lock()
	active := 0
	for _, wk := range c.workers {
		if wk.state == WorkerActive {
			active++
		}
	}
	c.mu.Unlock()
	if active == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "no active workers", "active_workers": 0,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "active_workers": active})
}

// handleMergedTrace serves one trace as Chrome trace-event JSON with
// the coordinator's own spans merged with the matching spans fetched
// from every registered worker's /debug/traces/{id}. Workers that no
// longer remember the trace (ring eviction, restart) or fail the fetch
// are skipped — a partial trace beats none.
func (c *Coordinator) handleMergedTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events := otrace.ChromeEvents(c.Tracer().Service(), c.Tracer().TraceSpans(id))

	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for _, wk := range c.workers {
		urls = append(urls, wk.url)
	}
	c.mu.Unlock()
	sort.Strings(urls)

	for _, u := range urls {
		ctx, cancel := context.WithTimeout(r.Context(), c.cfg.HealthTimeout)
		code, body, err := c.workerClient(u, nil).do(ctx, http.MethodGet, "/debug/traces/"+id, nil)
		cancel()
		if err != nil || code != http.StatusOK {
			continue
		}
		var part struct {
			TraceEvents []otrace.Event `json:"traceEvents"`
		}
		if json.Unmarshal(body, &part) != nil {
			continue
		}
		events = append(events, part.TraceEvents...)
	}

	if len(events) == 0 {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no trace %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = otrace.WriteChrome(w, events)
}
