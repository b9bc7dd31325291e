// Package cluster is the distributed sweep execution layer: a
// coordinator that fans the points of one design-space sweep out across
// a fleet of stock lvpd workers.
//
// The coordinator is deliberately thin. A worker is an unmodified lvpd
// daemon — the coordinator drives it entirely through the public
// /v1/jobs API and probes /healthz — so scaling out is "start more
// lvpd processes and register them". What makes the fan-out safe is the
// spec layer: every sweep point canonicalizes to a spec.Sim whose
// canonical hash is an idempotency key shared by every node. Dispatching
// a point twice (a retry after a timeout, a re-dispatch after a worker
// dies) can only ever produce the same cache entry, so the coordinator
// retries aggressively and dedups freely.
//
// Fault tolerance is a small state machine per dispatch attempt:
//
//   - Every attempt gets a deadline; failures retry on the (then)
//     least-loaded worker with exponential backoff plus jitter.
//   - Transport errors and 5xx responses count against the worker; after
//     QuarantineAfter consecutive failures the worker is quarantined
//     (circuit open) and its in-flight attempts are cancelled and
//     re-dispatched elsewhere ("stolen").
//   - A quarantined worker is re-probed after a cool-down (circuit
//     half-open) and reactivated on the first healthy response.
//   - Draining a worker (DELETE /v1/cluster/workers/{id}) steals its
//     in-flight points the same way without blaming it.
//
// Everything observable is exported through internal/obs: global and
// per-worker dispatched/retried/stolen/quarantined counters, in-flight
// gauges, and each worker's reported simulation throughput.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/tenant"
)

// Config tunes the coordinator. Zero values select the defaults noted
// per field.
type Config struct {
	// DefaultInsts is the instruction budget filled into sweep points
	// that leave it unset (default server.DefaultInsts, 200k). It MUST
	// match the workers' -insts default for spec hashes — and therefore
	// result caches — to agree across the fleet.
	DefaultInsts uint64

	// MaxInsts clamps per-point budgets (default server.DefaultMaxInsts,
	// 5M; -1 = unlimited), mirroring the workers' -max-insts.
	MaxInsts int64

	// Seed fills Run.Seed when a sweep leaves it at 0 (default the
	// workers' default seed).
	Seed uint64

	// MaxSweepPoints caps one sweep's expansion (default 4096 — a
	// cluster exists to run sweeps too big for one box).
	MaxSweepPoints int

	// CacheSize is the coordinator's shared result cache capacity
	// (default 4096 entries). Points whose spec hash is already cached
	// are answered without dispatching.
	CacheSize int

	// RetainedSweeps bounds how many finished sweeps stay queryable
	// (default 64).
	RetainedSweeps int

	// WorkerSlots is the maximum concurrent dispatches per worker
	// (default 4). Keep it at or below a worker's queue depth so
	// dispatches do not bounce off worker backpressure.
	WorkerSlots int

	// PointDeadline bounds one dispatch attempt, submit through the
	// job's terminal event (default 5 minutes).
	PointDeadline time.Duration

	// PointRetries is how many failed attempts a point survives beyond
	// the first before the point is marked failed (default 5).
	// Re-dispatches stolen from a dying or draining worker do not
	// consume this budget; they have their own cap derived from it.
	PointRetries int

	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (defaults 100ms and 5s); each delay is jittered to
	// 50–150% to avoid thundering re-dispatch.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// HealthInterval is the worker health-probe period (default 2s);
	// HealthTimeout bounds each probe (default 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration

	// QuarantineAfter is the consecutive-failure threshold that opens a
	// worker's circuit (default 3); QuarantineCooldown is how long the
	// circuit stays open before a half-open probe (default 30s).
	QuarantineAfter    int
	QuarantineCooldown time.Duration

	// DataDir enables sweep durability: every accepted sweep and point
	// settlement is WAL-logged under this directory, finished results
	// land in the result warehouse, and a restarted coordinator resumes
	// whatever points the log still owes. Empty disables persistence
	// (the pre-durability behavior).
	DataDir string

	// WorkerAPIKey is presented to workers as Authorization: Bearer on
	// every dispatch. Required when the fleet runs with -tenants-file;
	// list it there as a Proxy-flagged tenant so dispatched points keep
	// their submitting tenant's attribution (X-Lvpd-Tenant).
	WorkerAPIKey string

	// TraceCacheDir persists traces uploaded to the coordinator
	// (POST /v1/workloads) across restarts. Empty keeps them in memory
	// only. Either way, the coordinator pre-ships each sweep's uploaded
	// traces to its workers; workers generate synthetic streams
	// themselves.
	TraceCacheDir string

	// Tenants authenticates the coordinator's own API clients and
	// attributes sweeps. nil runs single-tenant (no key required).
	Tenants *tenant.Registry

	// ObsScrapeInterval is the federated collection period: every tick
	// the coordinator samples its own registry and every non-drained
	// worker's /metrics into the embedded time-series store (default
	// 5s). ObsRetention bounds how far back range queries reach
	// (default 15m).
	ObsScrapeInterval time.Duration
	ObsRetention      time.Duration

	// Alerts enables SLO alerting over the federated store. nil
	// disables evaluation; /v1/alerts then reports enabled=false.
	Alerts *tsdb.RuleSet

	// Logger receives structured coordinator logs (default
	// slog.Default).
	Logger *slog.Logger

	// ServiceName labels the coordinator's spans in trace exports
	// (default "lvpd-coordinator"), distinguishing its track from the
	// workers' in a merged Perfetto view.
	ServiceName string
}

// Validate rejects configurations the coordinator cannot honor.
func (c Config) Validate() error {
	if c.MaxSweepPoints < 0 {
		return fmt.Errorf("cluster: MaxSweepPoints must be >= 0 (0 = default), got %d", c.MaxSweepPoints)
	}
	if c.MaxSweepPoints > 1<<20 {
		return fmt.Errorf("cluster: MaxSweepPoints %d exceeds the %d ceiling", c.MaxSweepPoints, 1<<20)
	}
	if c.PointRetries < 0 {
		return fmt.Errorf("cluster: PointRetries must be >= 0, got %d", c.PointRetries)
	}
	if c.QuarantineAfter < 0 {
		return fmt.Errorf("cluster: QuarantineAfter must be >= 0 (0 = default), got %d", c.QuarantineAfter)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.DefaultInsts == 0 {
		c.DefaultInsts = server.DefaultInsts
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = server.DefaultMaxInsts
	}
	if c.Seed == 0 {
		c.Seed = server.DefaultSeed
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 4096
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.RetainedSweeps <= 0 {
		c.RetainedSweeps = 64
	}
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = 4
	}
	if c.PointDeadline <= 0 {
		c.PointDeadline = 5 * time.Minute
	}
	if c.PointRetries == 0 {
		c.PointRetries = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = 30 * time.Second
	}
	if c.ObsScrapeInterval <= 0 {
		c.ObsScrapeInterval = 5 * time.Second
	}
	if c.ObsRetention <= 0 {
		c.ObsRetention = 15 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.ServiceName == "" {
		c.ServiceName = "lvpd-coordinator"
	}
}

// Coordinator owns the worker registry, the sweep state, and the
// dispatch machinery, on the serving shell it shares with lvpd
// (server.Shell: auth, request metrics, the federated tsdb, uploads,
// the result cache and the durable store). Create with New, start the
// health prober with Start, mount Handler on an http.Server, and stop
// with Shutdown.
type Coordinator struct {
	*server.Shell
	cfg Config
	log *slog.Logger
	hc  *http.Client

	// resume holds the points the WAL still owed at Open; Start
	// dispatches them.
	resume []resumedPoint

	// lifeCtx parents every dispatch attempt and the health prober;
	// lifeStop is the shutdown hard stop.
	lifeCtx  context.Context
	lifeStop context.CancelFunc

	runners   sync.WaitGroup // per-point dispatch goroutines
	probeWG   sync.WaitGroup // the health prober
	accepting atomic.Bool

	mu         sync.Mutex
	workers    map[string]*worker // by id
	byURL      map[string]*worker
	sweeps     map[string]*sweep
	order      []string // finished-sweep retention FIFO
	nextWorker uint64
	nextSweep  uint64

	// slotFreed is closed, and replaced, whenever a dispatch slot may
	// have opened; points that found no slot wait on it (see
	// acquireWorker and wakeWaitersLocked).
	slotFreed chan struct{}

	mDispatched  *obs.Counter
	mRetried     *obs.Counter
	mStolen      *obs.Counter
	mQuarantined *obs.Counter
	mInflight    *obs.Gauge
	mPtsDone     *obs.Counter
	mPtsFailed   *obs.Counter
	mPtsCached   *obs.Counter
	mPtsDeduped  *obs.Counter

	mTraceShipped    *obs.Counter
	mTraceShipFailed *obs.Counter

	// Per-tenant fan-out attribution, keyed by tenant name.
	mTenantSweeps map[string]*obs.Counter
	mTenantPoints map[string]*obs.Counter
}

// resumedPoint is one owed point recovered from the WAL, waiting for
// Start to dispatch it.
type resumedPoint struct {
	sw *sweep
	pt *point
}

// New builds a coordinator from cfg, rejecting invalid configurations.
// Call Start before dispatching sweeps.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	var c *Coordinator
	sh, err := server.NewShell(server.ShellConfig{
		Prefix:            "lvpc",
		ServiceName:       cfg.ServiceName,
		Logger:            cfg.Logger,
		Tenants:           cfg.Tenants,
		CacheSize:         cfg.CacheSize,
		TraceCacheDir:     cfg.TraceCacheDir,
		DataDir:           cfg.DataDir,
		ObsScrapeInterval: cfg.ObsScrapeInterval,
		ObsRetention:      cfg.ObsRetention,
		Alerts:            cfg.Alerts,
		Targets:           func() []tsdb.Target { return c.workerTargets() },
		Annotate:          func() map[string]any { return c.queryAnnotations() },
	})
	if err != nil {
		return nil, err
	}
	reg := sh.Registry()
	c = &Coordinator{
		Shell:   sh,
		cfg:     cfg,
		log:     cfg.Logger,
		hc:      &http.Client{},
		workers: make(map[string]*worker),
		byURL:   make(map[string]*worker),
		sweeps:  make(map[string]*sweep),

		slotFreed: make(chan struct{}),

		mDispatched:  reg.Counter("lvpc_points_dispatched_total", "Dispatch attempts sent to workers."),
		mRetried:     reg.Counter("lvpc_points_retried_total", "Dispatch attempts retried after a failure."),
		mStolen:      reg.Counter("lvpc_points_stolen_total", "In-flight points re-dispatched off a quarantined, drained, or dead worker."),
		mQuarantined: reg.Counter("lvpc_workers_quarantined_total", "Worker circuit-open transitions."),
		mInflight:    reg.Gauge("lvpc_points_inflight", "Points currently dispatched to workers."),
		mPtsDone:     reg.Counter("lvpc_points_total", "Sweep points by outcome.", "state", "done"),
		mPtsFailed:   reg.Counter("lvpc_points_total", "Sweep points by outcome.", "state", "failed"),
		mPtsCached:   reg.Counter("lvpc_points_total", "Sweep points by outcome.", "state", "cached"),
		mPtsDeduped:  reg.Counter("lvpc_points_total", "Sweep points by outcome.", "state", "deduped"),
		mTraceShipped: reg.Counter("lvpc_trace_artifacts_shipped_total",
			"Uploaded-trace artifacts successfully pre-shipped to workers (one per artifact per worker)."),
		mTraceShipFailed: reg.Counter("lvpc_trace_artifact_ship_failures_total",
			"Uploaded-trace artifact pre-ships that failed (the worker rejects points that need the trace)."),

		mTenantSweeps: make(map[string]*obs.Counter),
		mTenantPoints: make(map[string]*obs.Counter),
	}
	for _, tn := range sh.Tenants().Tenants() {
		name := tn.Name
		c.mTenantSweeps[name] = reg.Counter("lvpc_tenant_sweeps_total", "Sweeps accepted by tenant.", "tenant", name)
		c.mTenantPoints[name] = reg.Counter("lvpc_tenant_points_done_total", "Sweep points finished by tenant.", "tenant", name)
	}
	// Rendered as a counter at scrape time: artifact generations only
	// ever accrue, and counter typing lets rate() work over them.
	reg.CounterFunc("lvpc_trace_artifacts_generated_total",
		"Uploaded-trace streams the coordinator recorded for pre-shipping (workers generate synthetic streams).",
		func() float64 { return float64(sh.Traces().Stats().Generated) })
	c.registerFleetGauges()
	c.lifeCtx, c.lifeStop = context.WithCancel(context.Background())
	c.routes()
	if st := sh.Store(); st != nil {
		if err := c.replaySweeps(); err != nil {
			st.Close()
			return nil, err
		}
	}
	return c, nil
}

// defaults returns the spec defaults sweep points normalize under.
// They must match the workers' defaults for hashes to agree fleet-wide.
func (c *Coordinator) defaults() spec.Defaults {
	var maxInsts uint64
	if c.cfg.MaxInsts > 0 {
		maxInsts = uint64(c.cfg.MaxInsts)
	}
	return spec.Defaults{Insts: c.cfg.DefaultInsts, MaxInsts: maxInsts, Seed: c.cfg.Seed}
}

// Start launches the health prober, dispatches whatever points the WAL
// still owed at Open, and opens the coordinator for sweeps.
func (c *Coordinator) Start() {
	c.accepting.Store(true)
	if n := len(c.resume); n > 0 {
		c.runners.Add(n)
		for _, rp := range c.resume {
			go c.runPoint(rp.sw, rp.pt)
		}
		c.log.Info("resuming owed sweep points from the WAL", "points", n)
		c.resume = nil
	}
	c.probeWG.Add(1)
	go c.prober()
	c.Shell.Start()
}

// Shutdown stops accepting sweeps and gives in-flight points until
// ctx's deadline to finish before cancelling them. Blocks until every
// dispatch goroutine and the prober exit.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.accepting.Store(false)
	done := make(chan struct{})
	go func() {
		c.runners.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		c.log.Warn("shutdown deadline reached; cancelling in-flight points")
	}
	c.lifeStop()
	<-done
	c.probeWG.Wait()
	if serr := c.Shell.Shutdown(); serr != nil && err == nil {
		err = serr
	}
	return err
}
