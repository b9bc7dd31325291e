package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/obs/tsdb"
	"repro/internal/spec"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// DefaultSeed fills Run.Seed when a request leaves it at 0. It is
// exported so the cluster coordinator canonicalizes specs under the
// same defaults as the workers it dispatches to — a prerequisite for
// spec hashes agreeing across the fleet.
const DefaultSeed = 0xC0FFEE

// defaultMaxSweepPoints is the default cap on one sweep's expansion.
const defaultMaxSweepPoints = 256

// maxSweepPointsCeiling rejects absurd MaxSweepPoints configurations:
// beyond a million points per sweep the expansion itself (validation,
// response payload) is the problem, not the cap.
const maxSweepPointsCeiling = 1 << 20

// Config tunes the job service. Zero values select the defaults noted
// per field.
type Config struct {
	// Workers is the simulation worker pool size (default GOMAXPROCS).
	Workers int

	// QueueDepth bounds the FIFO of accepted-but-unstarted jobs
	// (default 64). A full queue rejects submissions with 429.
	QueueDepth int

	// CacheSize is the result LRU capacity (default 1024 entries).
	CacheSize int

	// DefaultInsts is the instruction budget applied to requests that
	// leave Insts at 0 (default 200k, the package's DefaultInsts).
	DefaultInsts uint64

	// MaxInsts clamps per-request budgets (default 5M, the package's
	// DefaultMaxInsts; -1 = unlimited).
	MaxInsts int64

	// JobTimeout is the per-job simulation deadline applied when a
	// request has no timeout_ms (default 2 minutes).
	JobTimeout time.Duration

	// RetainedJobs bounds how many finished jobs stay queryable
	// (default 4096); older finished jobs are forgotten FIFO.
	RetainedJobs int

	// MaxSweepPoints caps how many jobs one POST /v1/sweeps may expand
	// to (default 256). Cluster coordinators raise it: their sweeps fan
	// out across workers instead of one queue.
	MaxSweepPoints int

	// Logger receives structured request and job logs (default
	// slog.Default).
	Logger *slog.Logger

	// ServiceName labels this process's spans in trace exports
	// (default "lvpd"). Cluster workers set it to their advertised URL
	// so merged traces attribute spans to the right process.
	ServiceName string

	// ProgressInterval is the instruction cadence of the per-job live
	// progress probe (default cpu.DefaultProgressInterval).
	ProgressInterval int

	// ProgressPoll is how often GET /v1/jobs/{id}/events samples a
	// running job's progress slot (default 150ms).
	ProgressPoll time.Duration

	// DataDir enables durability. When set, accepted jobs are recorded
	// in a write-ahead log under this directory before the submitter
	// sees 202, finished results are retained in a warehouse keyed by
	// canonical spec hash (served at GET /v1/runs), and a restart
	// replays the log: every accepted-but-unfinished job is re-enqueued.
	// Empty = in-memory only (the pre-durability behavior).
	DataDir string

	// Tenants is the tenant registry: API keys, weights, and quotas.
	// nil = single-tenant mode (no authentication; one default tenant
	// owns the whole queue).
	Tenants *tenant.Registry

	// TraceCacheDir persists uploaded traces (POST /v1/workloads, or
	// PUT /v1/traces from a coordinator) as content-addressed compressed
	// artifacts, so they survive restarts. Empty keeps them in memory
	// only. Either way every stream is recorded once per (workload,
	// insts) and replayed by every run while it stays resident; a
	// synthetic stream is regenerated after eviction or restart.
	TraceCacheDir string

	// ObsScrapeInterval is the cadence at which the embedded
	// time-series store samples the metrics registry (default 5s).
	ObsScrapeInterval time.Duration

	// ObsRetention bounds how far back GET /v1/metrics/query can see
	// (default 15m). Together with the scrape interval it fixes each
	// series' ring size.
	ObsRetention time.Duration

	// Alerts is the validated SLO alert rule set (from
	// tsdb.LoadRules). nil disables alert evaluation; GET /v1/alerts
	// then reports alerting disabled.
	Alerts *tsdb.RuleSet

	// SSEKeepalive is the cadence of ": ping" comment frames on
	// GET /v1/jobs/{id}/events streams, keeping idle proxies from
	// reaping slow jobs' streams (default 15s).
	SSEKeepalive time.Duration

	// FlightCap bounds retained job flight records in the durable
	// store (default 1024). Only meaningful with DataDir set.
	FlightCap int
}

// Validate rejects configurations the server cannot honor. New calls
// it; it is exported for callers that assemble configs from flags and
// want the error before constructing anything.
func (c Config) Validate() error {
	if c.MaxSweepPoints < 0 {
		return fmt.Errorf("server: MaxSweepPoints must be >= 0 (0 = default %d), got %d",
			defaultMaxSweepPoints, c.MaxSweepPoints)
	}
	if c.MaxSweepPoints > maxSweepPointsCeiling {
		return fmt.Errorf("server: MaxSweepPoints %d exceeds the %d ceiling — expansions that large should be split into multiple sweeps",
			c.MaxSweepPoints, maxSweepPointsCeiling)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultInsts == 0 {
		c.DefaultInsts = DefaultInsts
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = DefaultMaxInsts
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.RetainedJobs <= 0 {
		c.RetainedJobs = 4096
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = defaultMaxSweepPoints
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.ServiceName == "" {
		c.ServiceName = "lvpd"
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = cpu.DefaultProgressInterval
	}
	if c.ProgressPoll <= 0 {
		c.ProgressPoll = 150 * time.Millisecond
	}
	if c.ObsScrapeInterval <= 0 {
		c.ObsScrapeInterval = 5 * time.Second
	}
	if c.ObsRetention <= 0 {
		c.ObsRetention = 15 * time.Minute
	}
	if c.SSEKeepalive <= 0 {
		c.SSEKeepalive = 15 * time.Second
	}
}

// job is one tracked simulation request: a resolved canonical spec
// plus the response label and per-job timeout.
type job struct {
	id        string
	sim       spec.Sim
	label     string
	timeoutMS int64
	key       string
	tenant    string

	// parent is the submitter's span context, captured from the submit
	// request's traceparent header; the job span joins that trace.
	parent otrace.SpanContext

	// prog is the live progress slot the job's simulations publish
	// into; one slot serves both phases (Clear between them). For
	// multi-context jobs progRows adds one row per hardware context
	// (allocated at submit, so status snapshots need no job lock
	// coordination with the simulation).
	prog     cpu.Progress
	progRows []cpu.Progress

	ctx    context.Context
	cancel context.CancelFunc

	// flight is the job's in-memory black box (bounded event and
	// progress-snapshot rings); dumped to the durable flight store on
	// failure, cancellation, or a firing SLO alert.
	flight flightRing

	mu       sync.Mutex
	state    string
	claimed  bool // a settle owns the terminal transition
	errMsg   string
	result   *RunResult
	cacheHit bool
	traceID  string // trace the job span recorded under
	phase    string // "baseline" | "run" while running
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
}

// startPhase empties the progress slot and labels the phase the job's
// next simulation belongs to. Called from the job's worker goroutine
// only, between simulations, so clearing cannot race a publisher.
func (j *job) startPhase(phase string) {
	j.prog.Clear()
	for i := range j.progRows {
		j.progRows[i].Clear()
	}
	j.mu.Lock()
	j.phase = phase
	j.mu.Unlock()
	j.flight.note("phase: " + phase)
}

// start moves a queued job to running; it returns false once a settle
// claimed the job (a DELETE while it was queued).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claimed {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.flight.note("state: " + StateRunning)
	return true
}

// claim reserves the job's terminal transition for the caller and
// notes it in the black box; the first claim wins. Status keeps
// showing queued or running until publish. It returns when the job
// started running (zero if it never ran).
func (j *job) claim(state, errMsg string) (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claimed {
		return time.Time{}, false
	}
	j.claimed = true
	msg := "state: " + state
	if errMsg != "" {
		msg += " (" + errMsg + ")"
	}
	j.flight.note(msg)
	return j.started, true
}

// publish makes a claimed terminal state visible and wakes every
// waiter on j.done. A done job that never ran was answered from the
// cache or the warehouse.
func (j *job) publish(state, errMsg string, res *RunResult, finished time.Time) {
	j.mu.Lock()
	j.state, j.errMsg, j.result, j.finished = state, errMsg, res, finished
	j.cacheHit = state == StateDone && j.started.IsZero()
	j.mu.Unlock()
	close(j.done)
}

// status snapshots the job for JSON rendering.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		SpecHash: j.key,
		Tenant:   j.tenant,
		Error:    j.errMsg,
		Result:   j.result,
		CacheHit: j.cacheHit,
		TraceID:  j.traceID,
		Created:  j.created,
	}
	if j.state == StateRunning && j.phase != "" {
		if snap, ok := j.prog.Load(); ok {
			total := j.sim.Workload.Insts
			if n := len(j.progRows); n > 0 {
				total *= uint64(n) // aggregate slot counts all contexts
			}
			pv := NewProgressView(j.phase, total, snap)
			if len(j.progRows) > 0 {
				names := j.sim.ContextWorkloads()
				for i := range j.progRows {
					rs, ok := j.progRows[i].Load()
					if !ok {
						continue
					}
					cp := ContextProgress{
						Context:      i,
						Workload:     names[i],
						Instructions: rs.Instructions,
						Cycles:       rs.Cycles,
					}
					if j.sim.Workload.Insts > 0 {
						cp.Pct = 100 * float64(rs.Instructions) / float64(j.sim.Workload.Insts)
					}
					pv.PerContext = append(pv.PerContext, cp)
				}
			}
			st.Progress = &pv
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// summary snapshots the job as one row of GET /v1/jobs.
func (j *job) summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	sum := JobSummary{
		ID:        j.id,
		State:     j.state,
		SpecHash:  j.key,
		Tenant:    j.tenant,
		Workload:  j.sim.Workload.Name,
		Predictor: j.label,
		CacheHit:  j.cacheHit,
		Created:   j.created,
	}
	if !j.finished.IsZero() {
		t := j.finished
		sum.Finished = &t
	}
	return sum
}

// simKey identifies an expt.Context: contexts cache baselines, so one
// is kept per (instruction budget, seed) combination.
type simKey struct {
	insts uint64
	seed  uint64
}

// Server is the simulation-as-a-service daemon core: handlers, queue,
// worker pool, and job metrics, on the serving Shell it shares with
// the cluster coordinator. Create with New, start the workers with
// Start, mount Handler on an http.Server, and stop with Shutdown.
type Server struct {
	*Shell
	cfg Config

	// lifeCtx parents every job context; lifeStop aborts all
	// simulations (used as the shutdown hard stop).
	lifeCtx  context.Context
	lifeStop context.CancelFunc

	// sched replaces the old global FIFO channel: a weighted fair
	// queueing scheduler over per-tenant queues. Workers block in
	// Dequeue; Shutdown closes it.
	sched     *tenant.WFQ
	wg        sync.WaitGroup
	accepting atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // finished-job retention FIFO
	nextID  uint64
	simCtxs map[simKey]*expt.Context

	// drainEWMA holds the float64 bits of an exponentially weighted
	// moving average of recent job durations, the basis of the
	// Retry-After estimate returned with 429 responses.
	drainEWMA atomic.Uint64

	mAccepted   *obs.Counter
	mDone       *obs.Counter
	mFailed     *obs.Counter
	mCanceled   *obs.Counter
	mRejected   *obs.Counter
	mCacheHits  *obs.Counter
	mCacheMiss  *obs.Counter
	mQueueDepth *obs.Gauge
	mInflight   *obs.Gauge
	mJobDur     *obs.Histogram
	mSimInsts   *obs.Counter
	mThrottled  *obs.Counter
	mSSEDropped *obs.Counter

	// Per-tenant counters, keyed by tenant name (registry is immutable,
	// so the maps are built once in New and read without locking).
	mTenantDispatched map[string]*obs.Counter
	mTenantAccepted   map[string]*obs.Counter
	mTenantRejected   map[string]*obs.Counter
	mTenantSimInsts   map[string]*obs.Counter
}

// New builds a server from cfg, rejecting invalid configurations. Call
// Start before serving requests. With DataDir set, New also opens the
// WAL, replays it, and re-enqueues every job that was accepted but not
// finished when the previous process died.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	var s *Server
	sh, err := NewShell(ShellConfig{
		Prefix:            "lvpd",
		ServiceName:       cfg.ServiceName,
		Logger:            cfg.Logger,
		Tenants:           cfg.Tenants,
		CacheSize:         cfg.CacheSize,
		TraceCacheDir:     cfg.TraceCacheDir,
		DataDir:           cfg.DataDir,
		FlightCap:         cfg.FlightCap,
		ObsScrapeInterval: cfg.ObsScrapeInterval,
		ObsRetention:      cfg.ObsRetention,
		Alerts:            cfg.Alerts,
		// The flight recorder samples running jobs on every scrape and
		// dumps their black boxes when an alert fires.
		OnScrape: func(now time.Time) { s.sampleFlights(now) },
		OnAlert:  func(n tsdb.Notification) { s.onAlertTransition(n) },
	})
	if err != nil {
		return nil, err
	}
	reg := sh.reg
	s = &Server{
		Shell:   sh,
		cfg:     cfg,
		sched:   tenant.NewWFQ(),
		jobs:    make(map[string]*job),
		simCtxs: make(map[simKey]*expt.Context),

		mAccepted:   reg.Counter("lvpd_jobs_total", "Jobs by terminal or entry state.", "state", "accepted"),
		mDone:       reg.Counter("lvpd_jobs_total", "Jobs by terminal or entry state.", "state", "done"),
		mFailed:     reg.Counter("lvpd_jobs_total", "Jobs by terminal or entry state.", "state", "failed"),
		mCanceled:   reg.Counter("lvpd_jobs_total", "Jobs by terminal or entry state.", "state", "canceled"),
		mRejected:   reg.Counter("lvpd_jobs_total", "Jobs by terminal or entry state.", "state", "rejected"),
		mCacheHits:  reg.Counter("lvpd_cache_hits_total", "Jobs answered from the result cache."),
		mCacheMiss:  reg.Counter("lvpd_cache_misses_total", "Jobs that required simulation."),
		mQueueDepth: reg.Gauge("lvpd_queue_depth", "Accepted jobs waiting for a worker."),
		mInflight:   reg.Gauge("lvpd_jobs_inflight", "Jobs currently simulating."),
		mJobDur:     reg.Histogram("lvpd_job_duration_seconds", "Wall time from dequeue to completion.", nil),
		mSimInsts:   reg.Counter("lvpd_sim_instructions_total", "Instructions simulated (rate gives sim instructions/sec)."),
		mThrottled:  reg.Counter("lvpd_jobs_total", "Jobs by terminal or entry state.", "state", "throttled"),
		mSSEDropped: reg.Counter("lvpd_sse_streams_dropped_total", "Job event streams whose client disconnected before the terminal event."),

		mTenantDispatched: make(map[string]*obs.Counter),
		mTenantAccepted:   make(map[string]*obs.Counter),
		mTenantRejected:   make(map[string]*obs.Counter),
		mTenantSimInsts:   make(map[string]*obs.Counter),
	}
	for _, tn := range sh.tenants.Tenants() {
		name := tn.Name
		s.mTenantAccepted[name] = reg.Counter("lvpd_tenant_jobs_total", "Per-tenant jobs by state.", "tenant", name, "state", "accepted")
		s.mTenantRejected[name] = reg.Counter("lvpd_tenant_jobs_total", "Per-tenant jobs by state.", "tenant", name, "state", "rejected")
		s.mTenantDispatched[name] = reg.Counter("lvpd_tenant_jobs_total", "Per-tenant jobs by state.", "tenant", name, "state", "dispatched")
		s.mTenantSimInsts[name] = reg.Counter("lvpd_tenant_sim_instructions_total", "Instructions simulated on behalf of the tenant.", "tenant", name)
		reg.GaugeFunc("lvpd_tenant_queue_depth",
			"Accepted jobs waiting for a worker, per tenant.",
			func() float64 { return float64(s.sched.TenantLen(name)) },
			"tenant", name)
		s.registerTenantStarvationGauges(name)
	}
	// Artifact-store counters are snapshots of the store's own stats,
	// rendered as counters at scrape time (the store already counts
	// under its lock; mirroring into obs counters would double-count
	// retries).
	reg.CounterFunc("lvpd_trace_artifact_hits_total",
		"Runs served from the recorded-trace artifact cache, by source.",
		func() float64 { return float64(s.traces.Stats().MemoryHits) },
		"source", "memory")
	reg.CounterFunc("lvpd_trace_artifact_hits_total",
		"Runs served from the recorded-trace artifact cache, by source.",
		func() float64 { return float64(s.traces.Stats().DiskHits) },
		"source", "disk")
	reg.CounterFunc("lvpd_trace_artifact_generated_total",
		"Streams recorded by running their generator on an artifact store miss (synthetic streams are regenerated, never cached on disk).",
		func() float64 { return float64(s.traces.Stats().Generated) })
	reg.CounterFunc("lvpd_trace_artifact_received_total",
		"Trace artifacts installed via PUT /v1/traces (a coordinator pre-shipping an uploaded trace) or POST /v1/workloads.",
		func() float64 { return float64(s.traces.Stats().Received) })
	reg.CounterFunc("lvpd_trace_artifact_corrupt_total",
		"Disk cache artifacts that failed to decode and were regenerated or skipped.",
		func() float64 { return float64(s.traces.Stats().CorruptRegens) })
	// Derived throughput: simulated instructions per wall-clock second
	// spent simulating, in millions. Computed at scrape time from the
	// instruction counter and the job-duration histogram sum, so it
	// needs no extra bookkeeping on the hot path.
	reg.GaugeFunc("lvpd_sim_mips",
		"Simulator throughput: simulated instructions per second of job wall time, in millions.",
		func() float64 {
			secs := s.mJobDur.Sum()
			if secs <= 0 {
				return 0
			}
			return float64(s.mSimInsts.Value()) / 1e6 / secs
		})
	s.lifeCtx, s.lifeStop = context.WithCancel(context.Background())
	s.routes()
	if s.st != nil {
		if err := s.replay(); err != nil {
			s.st.Close()
			return nil, err
		}
	}
	return s, nil
}

// Start launches the worker pool. Workers pull from the WFQ scheduler,
// which hands out the queued job with the smallest virtual finish tag —
// tenants with work queued are served in proportion to their weights.
func (s *Server) Start() {
	s.accepting.Store(true)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				p, ok := s.sched.Dequeue()
				if !ok {
					return
				}
				j := p.(*job)
				s.mQueueDepth.Add(-1)
				if c := s.mTenantDispatched[j.tenant]; c != nil {
					c.Inc()
				}
				s.runJob(j)
			}
		}()
	}
	s.Shell.Start()
}

// Shutdown drains the service: no new submissions are accepted, queued
// and running jobs are given until ctx's deadline to finish, then all
// remaining simulations are cancelled. Blocks until the workers exit,
// then closes the durable store (unless a simulated crash froze it).
func (s *Server) Shutdown(ctx context.Context) error {
	s.accepting.Store(false)
	s.sched.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.log.Warn("shutdown deadline reached; cancelling in-flight jobs")
		s.lifeStop()
		<-done
		err = ctx.Err()
	}
	s.lifeStop()
	if serr := s.Shell.Shutdown(); serr != nil && err == nil {
		err = serr
	}
	return err
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/flightrecord", s.handleFlightRecord)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /v1/runs/diff", s.handleDiffRuns)
	s.mux.HandleFunc("GET /v1/runs/{hash}", s.handleGetRun)
	s.mux.HandleFunc("GET /v1/traces/{hash}", s.handleGetTrace)
	s.mux.HandleFunc("PUT /v1/traces/{hash}", s.handlePutTrace)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/traces/{id}", s.tracer.ExportHandler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// WriteJSON writes v as a JSON response body with status code. Both
// daemons answer through it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the JSON error envelope {"error": msg} with status
// code.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorBody{Error: msg})
}

// specDefaults exposes the server's request defaults as spec defaults.
func (s *Server) specDefaults() spec.Defaults {
	var maxInsts uint64
	if s.cfg.MaxInsts > 0 {
		maxInsts = uint64(s.cfg.MaxInsts)
	}
	return spec.Defaults{Insts: s.cfg.DefaultInsts, MaxInsts: maxInsts, Seed: DefaultSeed}
}

// handleSubmit implements POST /v1/jobs: resolve the request into its
// canonical spec, answer from cache, or enqueue with backpressure
// (429 + Retry-After when the queue is full — the service sheds load
// instead of buffering unboundedly).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.accepting.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sim, err := req.ResolveSpec(s.specDefaults())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	tn := s.RequestTenant(r.Context())
	j, code, retryAfter := s.admit(tn, sim, req.Label(sim), req.TimeoutMS, otrace.ContextSpanContext(r.Context()))
	switch code {
	case http.StatusOK, http.StatusAccepted:
		WriteJSON(w, code, j.status())
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		WriteError(w, code, "tenant queue share or instruction budget exhausted; retry later")
	case http.StatusInternalServerError:
		WriteError(w, code, "durable store write failed")
	default:
		WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
	}
}

// noteJobDuration folds one finished job's wall time into the drain
// EWMA (alpha 0.25: a few jobs of history, responsive to phase
// changes).
func (s *Server) noteJobDuration(secs float64) {
	for {
		old := s.drainEWMA.Load()
		prev := math.Float64frombits(old)
		next := secs
		if prev > 0 {
			next = 0.75*prev + 0.25*secs
		}
		if s.drainEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a shed client should wait for
// queue space: the tenant's own backlog divided by the drain rate of
// the worker share its weight entitles it to (workers draining jobs of
// EWMA duration each). Single jobs and sweep points shed by a full
// queue both return this same estimate.
func (s *Server) retryAfterSeconds(tn *tenant.Tenant) int {
	depth := s.sched.TenantLen(tn.Name)
	workers := s.cfg.Workers
	if !s.tenants.Open() {
		// The tenant only contends for its weight share of the pool.
		share := float64(tn.EffectiveWeight()) / float64(s.tenants.TotalWeight())
		workers = int(float64(s.cfg.Workers)*share + 0.5)
		if workers < 1 {
			workers = 1
		}
	}
	return retryAfterEstimate(depth, workers, math.Float64frombits(s.drainEWMA.Load()))
}

// retryAfterEstimate is the pure Retry-After formula: ceil((depth+1) ×
// ewmaSecs / workers), clamped to [1, 60]. With no completed jobs yet
// (ewmaSecs 0) there is no evidence the queue drains slowly, so the
// historical 1-second hint stands.
func retryAfterEstimate(depth, workers int, ewmaSecs float64) int {
	if workers <= 0 {
		workers = 1
	}
	if ewmaSecs <= 0 || depth < 0 {
		return 1
	}
	eta := int(math.Ceil(float64(depth+1) * ewmaSecs / float64(workers)))
	if eta < 1 {
		return 1
	}
	if eta > 60 {
		return 60
	}
	return eta
}

// admit registers a job for a resolved spec and routes it: answered
// from the result cache or warehouse (StatusOK), enqueued
// (StatusAccepted), or shed (StatusTooManyRequests with a Retry-After
// hint / StatusServiceUnavailable / StatusInternalServerError, with
// the job unregistered again). Shared by POST /v1/jobs and POST
// /v1/sweeps. parent is the submitter's span context (zero when the
// request carried no traceparent); the job's spans join its trace.
func (s *Server) admit(tn *tenant.Tenant, sim spec.Sim, label string, timeoutMS int64, parent otrace.SpanContext) (*job, int, int) {
	j := s.newJob(tn, sim, label, timeoutMS, parent)

	// Cache: equivalent requests are answered without re-simulating.
	// The job never enters the WAL, so nothing settles there.
	if res, ok := s.LookupResult(j.key); ok {
		s.mCacheHits.Inc()
		s.settle(j, StateDone, "", &res, false)
		return j, http.StatusOK, 0
	}
	s.mCacheMiss.Inc()

	// Admission budget: a tenant over its insts/sec rate is shed before
	// anything is queued or persisted.
	if ra := s.tenants.ChargeInsts(tn, sim.Workload.Insts, time.Now()); ra > 0 {
		s.dropJob(j)
		s.mThrottled.Inc()
		if c := s.mTenantRejected[tn.Name]; c != nil {
			c.Inc()
		}
		return j, http.StatusTooManyRequests, ra
	}

	if !s.accepting.Load() {
		s.dropJob(j)
		return j, http.StatusServiceUnavailable, 0
	}
	err := s.sched.Enqueue(tn, j, float64(sim.Workload.Insts), s.tenants.QueueCap(tn, s.cfg.QueueDepth))
	switch {
	case errors.Is(err, tenant.ErrTenantFull):
		s.dropJob(j)
		s.mRejected.Inc()
		if c := s.mTenantRejected[tn.Name]; c != nil {
			c.Inc()
		}
		return j, http.StatusTooManyRequests, s.retryAfterSeconds(tn)
	case err != nil:
		s.dropJob(j)
		return j, http.StatusServiceUnavailable, 0
	}

	s.mQueueDepth.Add(1)

	// Durability: the accepted event must be on disk before the
	// submitter sees 202 — an accepted job survives any crash after
	// this point. On a write failure the job is pulled back out of the
	// queue (unless a worker already grabbed it, in which case it runs
	// with a cancelled context and settles as canceled).
	if perr := s.persistAccepted(j); perr != nil {
		s.log.Error("wal append failed; shedding job", "id", j.id, "err", perr)
		if s.sched.Remove(func(p any) bool { return p == j }) {
			s.mQueueDepth.Add(-1)
		}
		s.dropJob(j)
		return j, http.StatusInternalServerError, 0
	}
	s.mAccepted.Inc()
	if c := s.mTenantAccepted[tn.Name]; c != nil {
		c.Inc()
	}
	return j, http.StatusAccepted, 0
}

// newJob registers a fresh queued job.
func (s *Server) newJob(tn *tenant.Tenant, sim spec.Sim, label string, timeoutMS int64, parent otrace.SpanContext) *job {
	ctx, cancel := context.WithCancel(s.lifeCtx)
	s.mu.Lock()
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.nextID),
		sim:       sim,
		label:     label,
		timeoutMS: timeoutMS,
		tenant:    tn.Name,
		parent:    parent,
		key:       sim.CanonicalHash(),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	if n := sim.Machine.NumContexts(); n > 1 {
		j.progRows = make([]cpu.Progress, n)
	}
	j.flight.note("accepted")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Forget the oldest retained jobs beyond the cap; skip any still
	// queued or running (they are bounded by QueueDepth + Workers).
	for len(s.order) > s.cfg.RetainedJobs {
		old := s.jobs[s.order[0]]
		if old != nil {
			old.mu.Lock()
			terminal := TerminalState(old.state)
			old.mu.Unlock()
			if !terminal {
				break
			}
			delete(s.jobs, old.id)
		}
		s.order = s.order[1:]
	}
	s.mu.Unlock()
	return j
}

// dropJob unregisters a job that never entered the queue.
func (s *Server) dropJob(j *job) {
	j.cancel()
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
}

// handleListJobs implements GET /v1/jobs: a paginated listing of
// retained jobs, most recent first, as compact summaries (state + spec
// hash, no result payloads). Coordinators and operators use it to
// inspect a worker's backlog; ?limit= (default 50, max 500) and
// ?offset= page through it, ?state= and ?tenant= filter it (offset
// and total apply to the filtered listing).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	limit, offset := 50, 0
	stateFilter := r.URL.Query().Get("state")
	switch stateFilter {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateRejected:
	default:
		WriteError(w, http.StatusBadRequest, "state must be one of queued, running, done, failed, canceled, rejected")
		return
	}
	tenantFilter := r.URL.Query().Get("tenant")
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 500 {
			WriteError(w, http.StatusBadRequest, "limit must be an integer in [1, 500]")
			return
		}
		limit = n
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "offset must be a non-negative integer")
			return
		}
		offset = n
	}

	s.mu.Lock()
	// s.order is oldest-first and may name jobs dropped before they were
	// ever queued; walk it backwards, skipping the gaps.
	live := make([]*job, 0, len(s.jobs))
	for i := len(s.order) - 1; i >= 0; i-- {
		j := s.jobs[s.order[i]]
		if j == nil {
			continue
		}
		if tenantFilter != "" && j.tenant != tenantFilter {
			continue
		}
		if stateFilter != "" {
			j.mu.Lock()
			match := j.state == stateFilter
			j.mu.Unlock()
			if !match {
				continue
			}
		}
		live = append(live, j)
	}
	list := JobList{Total: len(live), Offset: offset, Limit: limit, Jobs: []JobSummary{}}
	for i := offset; i < len(live) && i < offset+limit; i++ {
		list.Jobs = append(list.Jobs, live[i].summary())
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, j.status())
}

// handleCancelJob implements DELETE /v1/jobs/{id}: cancel a queued or
// running job. The handler settles it, durably (a canceled job must
// not resurrect on restart), and the settle stops a running job's
// simulation within one check interval. A job that already settled
// keeps its state.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	s.settle(j, StateCanceled, "canceled by client", nil, true)
	WriteJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"workloads": trace.Names()}
	if ext := trace.ExternalNames(); len(ext) > 0 {
		resp["external"] = ext
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{
		Status:       "ok",
		QueueDepth:   s.sched.Len(),
		JobsInflight: s.mInflight.Value(),
		CacheEntries: s.cache.Len(),
	}
	if secs := s.mJobDur.Sum(); secs > 0 {
		h.SimMIPS = float64(s.mSimInsts.Value()) / 1e6 / secs
	}
	WriteJSON(w, http.StatusOK, h)
}

// handleReadyz implements GET /readyz, the readiness half of the
// health pair: 200 while the server accepts submissions, 503 once a
// drain has begun. Load balancers and cluster coordinators use it to
// stop routing work to a draining process; /healthz stays the liveness
// probe (and keeps its informational payload).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.accepting.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// simCtx returns the shared expt.Context for an (insts, seed)
// combination; contexts cache baseline runs and deduplicate concurrent
// baseline requests per workload.
func (s *Server) simCtx(insts, seed uint64) *expt.Context {
	key := simKey{insts: insts, seed: seed}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.simCtxs[key]; ok {
		return c
	}
	c, err := expt.NewContextErr(expt.Options{Insts: insts, Seed: seed, Workloads: nil, Traces: s.traces})
	if err != nil {
		// Unreachable: an empty workload list cannot fail.
		panic(err)
	}
	s.simCtxs[key] = c
	return c
}

// runJob executes one dequeued job: baseline (deduplicated per
// workload × machine) and configured run on the spec's machine, then
// settles it. Engines come from the spec registry — the only place
// predictor families are interpreted.
func (s *Server) runJob(j *job) {
	if !j.start() {
		return // canceled while queued
	}
	s.mInflight.Add(1)
	start := time.Now()

	timeout := s.cfg.JobTimeout
	if j.timeoutMS > 0 {
		timeout = time.Duration(j.timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	// The job span joins the submitter's trace when the submit request
	// carried a traceparent, and roots a fresh trace otherwise; the
	// baseline and configured-run phases become child spans.
	ctx = otrace.ContextWithRemote(ctx, j.parent)
	ctx, span := s.tracer.StartSpan(ctx, "job",
		otrace.String("job_id", j.id),
		otrace.String("workload", j.sim.Workload.Name),
		otrace.String("predictor", j.label),
		otrace.String("spec", j.key),
	)
	defer func() {
		<-j.done // a DELETE may own the settle
		span.SetAttr("state", j.status().State)
		span.Finish()
	}()
	j.mu.Lock()
	j.traceID = span.TraceID
	j.mu.Unlock()

	res, err := s.simulate(ctx, j, s.simCtx(j.sim.Workload.Insts, j.sim.Run.Seed))
	state, msg, persist := StateFailed, "", true
	var result *RunResult
	switch {
	case err == nil:
		if secs := time.Since(start).Seconds(); secs > 0 {
			res.SimMIPS = float64(res.SimInstructions) / 1e6 / secs
		}
		state, result = StateDone, &res
	case errors.Is(err, context.DeadlineExceeded):
		msg = "job deadline exceeded"
	case errors.Is(err, context.Canceled):
		// A DELETE claims the settle before it cancels, so this is a
		// shutdown's abandonment: nothing is persisted, the WAL keeps
		// owing the job, and a restart re-enqueues it.
		state, msg, persist = StateCanceled, "canceled", false
	default:
		msg = err.Error()
	}
	if claimed, _ := s.settle(j, state, msg, result, persist); claimed {
		s.log.InfoContext(ctx, "job "+state, "id", j.id, "workload", j.sim.WorkloadLabel(),
			"predictor", j.label, "spec", j.key, "speedup_pct", res.SpeedupPct, "err", msg,
			"dur_ms", time.Since(start).Milliseconds())
	}
}

// simulate runs a job's baseline (memoized per mix × machine in the
// shared context) and its configured run, publishing live progress
// into the job's slots: the machine-wide aggregate in j.prog and, on a
// multi-context machine, each context's own in j.progRows. An aborted
// phase returns its context's error.
func (s *Server) simulate(ctx context.Context, j *job, sctx *expt.Context) (RunResult, error) {
	pr := expt.Progress{All: &j.prog, Every: s.cfg.ProgressInterval}
	for i := range j.progRows {
		pr.Rows = append(pr.Rows, &j.progRows[i])
	}

	j.startPhase("baseline")
	bctx, bspan := s.tracer.StartSpan(ctx, "baseline")
	base, memoized := sctx.Baseline(bctx, j.sim, pr)
	bspan.SetAttr("cached", strconv.FormatBool(memoized))
	bspan.Finish()
	if base.Aborted() {
		return RunResult{}, ctx.Err()
	}
	var simInsts uint64
	if !memoized {
		simInsts += s.countSimInsts(j, base.Merged.Instructions)
	}

	run, comp := base, (*core.Composite)(nil)
	if j.sim.Predictor.Family != spec.FamilyNone {
		j.startPhase("run")
		rctx, rspan := s.tracer.StartSpan(ctx, "run")
		run, comp = sctx.Simulate(rctx, j.sim, pr)
		rspan.Finish()
		simInsts += s.countSimInsts(j, run.Merged.Instructions)
		if run.Aborted() {
			return RunResult{}, ctx.Err()
		}
	}
	res := NewSimResult(j.sim, j.label, run, base, comp)
	res.SimInstructions = simInsts
	return res, nil
}

// countSimInsts adds n simulated instructions to the service's and the
// job's tenant's counters, and returns n.
func (s *Server) countSimInsts(j *job, n uint64) uint64 {
	s.mSimInsts.Add(n)
	if c := s.mTenantSimInsts[j.tenant]; c != nil {
		c.Add(n)
	}
	return n
}

// settle is the only way a job reaches done, failed or canceled, and
// it runs its steps in the order DESIGN §12 gives: what a client reads
// next lands before the state is published, and the WAL record, which
// no API reads, comes last. persist is false where the WAL holds
// nothing to settle: a cache hit at admission never entered it, and a
// shutdown's abandonment leaves the job owed. settle reports whether
// this call claimed the job, and the WAL append's error (logged).
func (s *Server) settle(j *job, state, errMsg string, res *RunResult, persist bool) (bool, error) {
	// 1. Claim: the first caller wins; status still shows queued or
	// running. Cancelling stops a simulation that a DELETE claimed.
	started, ok := j.claim(state, errMsg)
	if !ok {
		return false, nil
	}
	j.cancel()
	finished := time.Now()
	ran := !started.IsZero()
	persist = persist && s.st != nil && !s.crashed.Load()

	// 2. Write what the API reads. A done job that never ran (a
	// replayed warehouse hit) already has its row.
	switch {
	case state == StateDone && ran:
		s.cache.Put(j.key, *res)
		if persist {
			if err := s.warehousePut(j, res); err != nil {
				s.log.Error("warehouse put failed", "id", j.id, "err", err)
			}
		}
	case state != StateDone && persist:
		rec := j.flightRecord(state)
		rec.State, rec.Error, rec.Finished = state, errMsg, finished
		s.dumpFlight(rec)
	}

	// 3. Observe.
	switch state {
	case StateDone:
		s.mDone.Inc()
	case StateFailed:
		s.mFailed.Inc()
	case StateCanceled:
		s.mCanceled.Inc()
	}
	if ran {
		secs := finished.Sub(started).Seconds()
		s.mJobDur.Observe(secs)
		s.noteJobDuration(secs)
		s.mInflight.Add(-1)
	}

	// 4. Publish.
	j.publish(state, errMsg, res, finished)

	// 5. Append the WAL terminal record.
	if !persist {
		return true, nil
	}
	var err error
	switch state {
	case StateDone:
		err = s.st.AppendJobDone(j.id, j.key)
	case StateFailed:
		err = s.st.AppendJobFailed(j.id, j.key, errMsg)
	case StateCanceled:
		err = s.st.AppendJobCanceled(j.id, j.key)
	}
	if err != nil {
		s.log.Error("wal append failed", "id", j.id, "state", state, "err", err)
	}
	return true, err
}
