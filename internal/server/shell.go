package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/obs/tsdb"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// DefaultInsts and DefaultMaxInsts are the per-job instruction budget
// applied when a request leaves it unset (200k) and the cap on
// requested budgets (5M). A coordinator canonicalizes sweep points
// under the same values as its workers, or spec hashes disagree
// across the fleet.
const (
	DefaultInsts    = 200_000
	DefaultMaxInsts = 5_000_000
)

// fsyncBuckets resolve sub-millisecond group-commit fsyncs; the default
// latency buckets start too coarse for a local disk's append path.
var fsyncBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1,
}

// ShellConfig is what NewShell takes from a daemon's configuration,
// with the daemon's defaults already applied.
type ShellConfig struct {
	// Prefix names the daemon's metric families ("lvpd", "lvpc").
	Prefix string

	ServiceName   string
	Logger        *slog.Logger
	Tenants       *tenant.Registry // nil = single-tenant
	CacheSize     int
	TraceCacheDir string
	DataDir       string

	ObsScrapeInterval time.Duration
	ObsRetention      time.Duration
	Alerts            *tsdb.RuleSet

	// Targets adds scrape targets to the collector's own registry
	// (a coordinator federates its workers). Re-evaluated every tick.
	Targets func() []tsdb.Target

	// Annotate adds fields to every GET /v1/metrics/query response.
	Annotate func() map[string]any

	// OnScrape runs after every collection pass; OnAlert on every
	// alert transition.
	OnScrape func(time.Time)
	OnAlert  func(tsdb.Notification)
}

// Shell is the serving platform lvpd and the cluster coordinator
// share: the metrics registry and span recorder, tenant
// authentication, one request middleware, the embedded time-series
// store with its collector and alerter, the recorded-trace artifact
// store, and the result cache backed by the durable store's warehouse.
// It serves GET /metrics, GET /debug/traces, GET /v1/metrics/query,
// GET /v1/alerts and POST /v1/workloads; a daemon embeds it and
// registers its own routes and metrics on it.
type Shell struct {
	prefix  string
	log     *slog.Logger
	reg     *obs.Registry
	tracer  *otrace.Recorder
	mux     *http.ServeMux
	tenants *tenant.Registry

	// traces is the content-addressed recorded-trace store: each
	// workload stream is generated at most once per process (or
	// fetched from the trace cache directory / an upload) and replayed
	// by every run that needs it.
	traces *trace.ArtifactStore

	// cache is the result LRU keyed by canonical spec hash; LookupResult
	// falls back from it to the warehouse.
	cache *ResultCache

	// st is the durable store (nil without a data directory). crashed
	// is a test hook: once set, no further WAL or warehouse writes
	// happen, so a later Shutdown leaves the store exactly as a SIGKILL
	// would.
	st      *store.Store
	crashed atomic.Bool

	// The observability plane. The collector and alerter loops run on
	// obsCtx; Shutdown stops them before the store closes under them.
	tsdb      *tsdb.DB
	collector *tsdb.Collector
	alerter   *tsdb.Alerter
	annotate  func() map[string]any
	obsCtx    context.Context
	obsStop   context.CancelFunc
	obsWG     sync.WaitGroup

	mAuthFailed *obs.Counter
	mUploads    *obs.Counter
}

// NewShell builds the shared serving shell: it opens the artifact
// store and, with DataDir set, the durable store. Replaying the WAL is
// the daemon's job.
func NewShell(cfg ShellConfig) (*Shell, error) {
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = tenant.Single()
	}
	reg := obs.NewRegistry()
	sh := &Shell{
		prefix:   cfg.Prefix,
		log:      cfg.Logger,
		reg:      reg,
		tracer:   otrace.NewRecorder(cfg.ServiceName, 0),
		mux:      http.NewServeMux(),
		tenants:  tenants,
		cache:    NewResultCache(cfg.CacheSize),
		annotate: cfg.Annotate,

		mAuthFailed: reg.Counter(cfg.Prefix+"_auth_failures_total", "Requests rejected for a missing or unknown API key."),
		mUploads:    reg.Counter(cfg.Prefix+"_trace_uploads_total", "External trace files accepted via POST /v1/workloads."),
	}
	walFsync := reg.Histogram(cfg.Prefix+"_wal_fsync_seconds",
		"Group-commit fsync latency on the WAL append path.", fsyncBuckets)

	traces, err := trace.NewArtifactStore(cfg.TraceCacheDir, 0)
	if err != nil {
		return nil, err
	}
	traces.SetLogger(sh.log)
	sh.traces = traces
	// Uploaded external traces persisted by a previous process register
	// their names again, so specs referencing "ext:<hash>" keep
	// validating across restarts.
	if n, err := traces.RehydrateExternal(); err != nil {
		sh.log.Warn("scanning trace cache for external workloads failed", "err", err)
	} else if n > 0 {
		sh.log.Info("external workloads rehydrated from trace cache", "count", n)
	}

	sh.initObs(cfg)
	sh.mux.Handle("GET /metrics", reg.Handler())
	sh.mux.Handle("GET /debug/traces", sh.tracer.IndexHandler())
	sh.mux.HandleFunc("GET /v1/metrics/query", sh.handleMetricsQuery)
	sh.mux.HandleFunc("GET /v1/alerts", sh.handleAlerts)
	sh.mux.HandleFunc("POST /v1/workloads", sh.handleUploadWorkload)

	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, store.Options{
			WAL: store.WALOptions{FsyncObserver: walFsync.Observe},
		})
		if err != nil {
			return nil, err
		}
		sh.st = st
	}
	return sh, nil
}

// initObs builds the embedded time-series layer: the ring-buffer DB,
// the collector that samples the registry (plus cfg.Targets) into it,
// and, when an alert rule set is configured, the SLO alerter.
func (sh *Shell) initObs(cfg ShellConfig) {
	sh.tsdb = tsdb.New(tsdb.Options{
		ScrapeInterval: cfg.ObsScrapeInterval,
		Retention:      cfg.ObsRetention,
	})
	sh.collector = &tsdb.Collector{
		DB:       sh.tsdb,
		Interval: cfg.ObsScrapeInterval,
		Targets: func() []tsdb.Target {
			targets := []tsdb.Target{tsdb.RegistryTarget("self", sh.reg)}
			if cfg.Targets != nil {
				targets = append(targets, cfg.Targets()...)
			}
			return targets
		},
		OnScrape: cfg.OnScrape,
	}
	// The tsdb watches itself: series count and cardinality-cap drops
	// are regular metrics, so a label blowup shows up in the very store
	// it is blowing up.
	sh.reg.GaugeFunc(sh.prefix+"_tsdb_series",
		"Time series held by the embedded metrics store.",
		func() float64 { return float64(sh.tsdb.SeriesCount()) })
	sh.reg.CounterFunc(sh.prefix+"_tsdb_dropped_series_total",
		"Series rejected by the embedded store's cardinality cap.",
		func() float64 { return float64(sh.tsdb.DroppedSeries()) })

	if cfg.Alerts != nil {
		sh.alerter = tsdb.NewAlerter(sh.tsdb, cfg.Alerts, sh.log, cfg.ServiceName)
		sh.alerter.OnTransition = cfg.OnAlert
	}
	// Registered unconditionally so the exposition is stable with and
	// without an -alerts-file.
	sh.reg.GaugeFunc(sh.prefix+"_alerts_firing",
		"SLO alert rules currently firing (0 when alerting is disabled).",
		func() float64 {
			if sh.alerter == nil {
				return 0
			}
			return float64(sh.alerter.FiringCount())
		})
	sh.obsCtx, sh.obsStop = context.WithCancel(context.Background())
}

// Start launches the collector and alerter loops.
func (sh *Shell) Start() {
	sh.obsWG.Add(1)
	go func() {
		defer sh.obsWG.Done()
		sh.collector.Run(sh.obsCtx)
	}()
	if sh.alerter != nil {
		sh.obsWG.Add(1)
		go func() {
			defer sh.obsWG.Done()
			sh.alerter.Run(sh.obsCtx)
		}()
	}
}

// Shutdown stops the collector and alerter loops, then closes the
// durable store unless a simulated crash froze it. A daemon calls it
// last, once its own work has drained: a scrape in flight may still
// observe WAL fsyncs, and the flight recorder writes to the store.
func (sh *Shell) Shutdown() error {
	sh.obsStop()
	sh.obsWG.Wait()
	if sh.st != nil && !sh.crashed.Load() {
		return sh.st.Close()
	}
	return nil
}

// Registry exposes the metrics registry (for tests and embedding).
func (sh *Shell) Registry() *obs.Registry { return sh.reg }

// Tracer exposes the span recorder (for tests and for coordinators
// that merge worker traces into their own).
func (sh *Shell) Tracer() *otrace.Recorder { return sh.tracer }

// TSDB exposes the embedded metrics store (for tests and embedding).
func (sh *Shell) TSDB() *tsdb.DB { return sh.tsdb }

// Collector exposes the collector feeding the embedded store, with
// each target's scrape health.
func (sh *Shell) Collector() *tsdb.Collector { return sh.collector }

// Tenants returns the tenant registry (tenant.Single without a
// tenants file).
func (sh *Shell) Tenants() *tenant.Registry { return sh.tenants }

// Store returns the durable store, nil without a data directory.
func (sh *Shell) Store() *store.Store { return sh.st }

// Traces returns the recorded-trace artifact store.
func (sh *Shell) Traces() *trace.ArtifactStore { return sh.traces }

// Cache returns the result LRU.
func (sh *Shell) Cache() *ResultCache { return sh.cache }

// ScrapeObs runs one observability collection pass with an explicit
// clock — the deterministic twin of the collector's ticker, for tests.
func (sh *Shell) ScrapeObs(now time.Time) {
	sh.collector.ScrapeOnce(context.Background(), now)
}

// EvaluateAlerts runs one alert evaluation pass with an explicit
// clock. No-op without configured rules.
func (sh *Shell) EvaluateAlerts(now time.Time) {
	if sh.alerter != nil {
		sh.alerter.Evaluate(now)
	}
}

// HandleFunc registers a daemon route on the shell's mux.
func (sh *Shell) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	sh.mux.HandleFunc(pattern, h)
}

// Handler returns the HTTP handler tree with trace propagation,
// request observation, and tenant authentication applied. The trace
// middleware is outermost so a request's traceparent header is on the
// context before any handler (or log line) runs; auth is innermost so
// failures still show up in the request log and metrics.
func (sh *Shell) Handler() http.Handler {
	return sh.tracer.Middleware(sh.observe(sh.authenticate(sh.mux)))
}

// authenticate resolves the request's tenant and stores it in the
// context. Only the /v1/ API surface requires a key; health, metrics,
// and debug endpoints stay open (they carry no tenant data and probes
// have no credentials). In single-tenant mode every request maps to
// the default tenant. A Proxy-flagged tenant (the coordinator's worker
// credential) may attribute its work to another tenant via the
// X-Lvpd-Tenant header.
func (sh *Shell) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		key := tenant.KeyFromAuth(r.Header.Get("Authorization"), r.Header.Get("X-API-Key"))
		tn, ok := sh.tenants.Authenticate(key)
		if !ok {
			sh.mAuthFailed.Inc()
			WriteError(w, http.StatusUnauthorized, "missing or unknown API key")
			return
		}
		if name := r.Header.Get("X-Lvpd-Tenant"); name != "" && name != tn.Name {
			if !tn.Proxy {
				WriteError(w, http.StatusForbidden, "tenant is not allowed to attribute work to others")
				return
			}
			attributed, ok := sh.tenants.ByName(name)
			if !ok {
				WriteError(w, http.StatusForbidden, "unknown tenant in X-Lvpd-Tenant")
				return
			}
			tn = attributed
		}
		next.ServeHTTP(w, r.WithContext(tenant.NewContext(r.Context(), tn)))
	})
}

// RequestTenant resolves the tenant the auth middleware attached to
// ctx; calls that bypass Handler fall back to the default tenant.
func (sh *Shell) RequestTenant(ctx context.Context) *tenant.Tenant {
	if tn := tenant.FromContext(ctx); tn != nil {
		return tn
	}
	return sh.tenants.Default()
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streams (which flush per
// event) survive the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe logs every request and folds it into the request counter
// and the duration histogram, labeled by status code and route.
func (sh *Shell) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		code := strconv.Itoa(rec.code)
		sh.reg.Counter(sh.prefix+"_http_requests_total", "HTTP requests by status code.",
			"code", code).Inc()
		sh.reg.Histogram(sh.prefix+"_http_request_duration_seconds",
			"HTTP request latency by route and status code.", obs.DefBuckets,
			"route", sh.route(r), "code", code).Observe(dur.Seconds())
		sh.log.InfoContext(r.Context(), "http",
			"method", r.Method,
			"path", r.URL.Path,
			"code", rec.code,
			"dur_ms", dur.Milliseconds(),
			"remote", r.RemoteAddr,
		)
	})
}

// route labels a request with the path of the mux pattern it matches,
// so job IDs and spec hashes collapse to their {placeholders} and
// cannot blow up the label cardinality. A request that matches no
// route (an unknown path or a wrong method) is labeled "other".
func (sh *Shell) route(r *http.Request) string {
	_, pattern := sh.mux.Handler(r)
	if pattern == "" {
		return "other"
	}
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// LookupResult answers a spec hash from the in-memory LRU, falling
// back to the warehouse (which retains every finished run beyond the
// LRU's capacity, across restarts) and promoting warehouse hits back
// into the LRU.
func (sh *Shell) LookupResult(key string) (RunResult, bool) {
	if res, ok := sh.cache.Get(key); ok {
		return res, true
	}
	if sh.st == nil {
		return RunResult{}, false
	}
	rec, ok := sh.st.Warehouse().Get(key)
	if !ok {
		return RunResult{}, false
	}
	var res RunResult
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		return RunResult{}, false
	}
	sh.cache.Put(key, res)
	return res, true
}

// StoreResult is LookupResult's write side: it puts a finished run's
// result in the LRU and, with a data directory, its warehouse row,
// attributed to tenant, linked to traceID and labeled with the run's
// predictor label. The row's workload is the result's (the mix label
// "a+b" on a multi-context run), or sim's name when the result names
// none.
func (sh *Shell) StoreResult(key string, sim spec.Sim, label, tenant, traceID string, res *RunResult) error {
	sh.cache.Put(key, *res)
	if sh.st == nil || sh.crashed.Load() {
		return nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	workload := res.Workload
	if workload == "" {
		workload = sim.Workload.Name
	}
	return sh.st.Warehouse().Put(store.RunRecord{
		SpecHash:  key,
		Tenant:    tenant,
		Workload:  workload,
		Predictor: label,
		TraceID:   traceID,
		Result:    raw,
		Contexts:  res.Contexts,
	})
}

// handleMetricsQuery implements GET /v1/metrics/query over the
// embedded store.
func (sh *Shell) handleMetricsQuery(w http.ResponseWriter, r *http.Request) {
	var extra map[string]any
	if sh.annotate != nil {
		extra = sh.annotate()
	}
	tsdb.HandleQuery(sh.tsdb, w, r, extra)
}

// handleAlerts implements GET /v1/alerts.
func (sh *Shell) handleAlerts(w http.ResponseWriter, r *http.Request) {
	tsdb.HandleAlerts(sh.alerter, w, r)
}

// handleUploadWorkload implements POST /v1/workloads: accept a CVP-1
// style trace file (internal/tracein container), convert it into a
// recorded workload stream, register it under its content-addressed
// "ext:<hash>" name, and persist it in the trace artifact store so it
// survives restarts and can be pre-shipped to sweep workers. The body
// is the raw trace file; the response carries the workload name to put
// in specs.
func (sh *Shell) handleUploadWorkload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceArtifactBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading trace body: "+err.Error())
		return
	}
	// The conversion bound is the artifact store's resident budget: a
	// trace too big to record is also too big to replay through sweeps,
	// so reject it before materializing anything.
	name, rep, info, err := tracein.ConvertBytes(data, trace.DefaultArtifactBudget)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "converting trace: "+err.Error())
		return
	}
	if _, err := trace.RegisterExternal(name, rep, true); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := sh.traces.PutRecording(name, rep)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "persisting trace: "+err.Error())
		return
	}
	sh.mUploads.Inc()
	sh.log.InfoContext(r.Context(), "external trace uploaded",
		"workload", name, "insts", info.Insts, "artifact", key,
		"tenant", sh.RequestTenant(r.Context()).Name, "backfilled_bytes", info.BackfilledBytes,
		"inconsistent_loads", info.InconsistentLoads)
	WriteJSON(w, http.StatusCreated, WorkloadUpload{
		Workload:          name,
		Insts:             info.Insts,
		Artifact:          key,
		BackfilledBytes:   info.BackfilledBytes,
		InconsistentLoads: info.InconsistentLoads,
		DroppedSrcRegs:    info.DroppedSrcRegs,
	})
}
