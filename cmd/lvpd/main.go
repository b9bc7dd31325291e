// Command lvpd runs the simulator as a resident job service: clients
// POST simulation requests to /v1/jobs, poll GET /v1/jobs/{id} for
// results, and scrape /metrics for fleet observability. See README.md
// ("Running as a service") for the endpoint reference.
//
// Usage:
//
//	lvpd -addr :8080
//	lvpd -addr :8080 -workers 8 -queue 128 -cache 4096 -job-timeout 1m
//
// With -cluster the same binary becomes a sweep coordinator instead:
// it runs no simulations itself, but fans sweep points out across a
// fleet of ordinary lvpd workers registered via POST
// /v1/cluster/workers. A worker can self-register at startup with
// -join (and -advertise when its own -addr is not dialable as-is):
//
//	lvpd -cluster -addr :9000
//	lvpd -addr :8081 -join http://coordinator:9000 -advertise http://worker1:8081
//
// See README.md ("Running a cluster") for the full walkthrough.
//
// With -data-dir the process journals every accepted job and sweep to
// a write-ahead log under that directory and retains finished results
// in a result warehouse; a restart with the same directory resumes
// whatever the log still owes (see README.md "Durability"). With
// -tenants-file the /v1/ API requires per-tenant API keys and applies
// quotas and weighted fair queueing (README.md "Multi-tenant
// operation").
//
// The daemon drains in-flight jobs on SIGINT/SIGTERM, cancelling
// whatever is still running once -drain-timeout elapses.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	otrace "repro/internal/obs/trace"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "job queue depth (full queue returns 429)")
		cacheSize    = flag.Int("cache", 0, "result cache entries (0 = mode default: 1024 worker, 4096 coordinator)")
		defaultInsts = flag.Uint64("insts", server.DefaultInsts, "default per-job instruction budget")
		maxInsts     = flag.Int64("max-insts", server.DefaultMaxInsts, "per-job instruction budget cap (-1 = unlimited)")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "default per-job simulation deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")
		maxSweepPts  = flag.Int("max-sweep-points", 0, "sweep expansion cap (0 = mode default)")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")

		// Durability and multi-tenancy (both modes).
		dataDir       = flag.String("data-dir", "", "durable store directory (WAL + result warehouse); empty = in-memory only")
		tenantsFile   = flag.String("tenants-file", "", "JSON tenants file enabling API-key auth, quotas, and fair queueing")
		traceCacheDir = flag.String("trace-cache-dir", "", "content-addressed recorded-trace artifact cache directory; empty = in-memory recordings only")

		// Observability plane (both modes).
		alertsFile  = flag.String("alerts-file", "", "JSON SLO alert rules evaluated over the embedded time-series store; empty disables alerting")
		checkAlerts = flag.Bool("check-alerts", false, "validate -alerts-file and exit (0 = valid)")
		obsScrape   = flag.Duration("obs-scrape-interval", 5*time.Second, "embedded metrics store scrape period")
		obsRetain   = flag.Duration("obs-retention", 15*time.Minute, "embedded metrics store retention window")

		// Coordinator mode.
		clusterMode   = flag.Bool("cluster", false, "run as a sweep coordinator instead of a simulation worker")
		workerSlots   = flag.Int("worker-slots", 4, "cluster: concurrent dispatches per worker")
		pointDeadline = flag.Duration("point-deadline", 5*time.Minute, "cluster: per-dispatch-attempt deadline")
		pointRetries  = flag.Int("point-retries", 5, "cluster: retries per point before it is marked failed")
		healthEvery   = flag.Duration("health-interval", 2*time.Second, "cluster: worker health probe period")
		quarAfter     = flag.Int("quarantine-after", 3, "cluster: consecutive failures before a worker is quarantined")
		quarCooldown  = flag.Duration("quarantine-cooldown", 30*time.Second, "cluster: circuit-open duration before a half-open probe")
		workerAPIKey  = flag.String("worker-api-key", "", "cluster: API key presented to workers on every dispatch (list it in their -tenants-file as a proxy tenant)")

		// Worker self-registration.
		joinURL      = flag.String("join", "", "coordinator URL to register with at startup (worker mode)")
		advertiseURL = flag.String("advertise", "", "URL the coordinator should dial for this worker (default derived from -addr)")
		joinAPIKey   = flag.String("join-api-key", "", "API key presented when self-registering with a key-protected coordinator")
	)
	flag.Parse()

	log, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *checkAlerts {
		if *alertsFile == "" {
			fmt.Fprintln(os.Stderr, "lvpd: -check-alerts needs -alerts-file")
			os.Exit(2)
		}
		rs, err := tsdb.LoadRules(*alertsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvpd: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("%s: %d rules ok (interval %s)\n", *alertsFile, len(rs.Rules), rs.Interval())
		return
	}
	var alerts *tsdb.RuleSet
	if *alertsFile != "" {
		alerts, err = tsdb.LoadRules(*alertsFile)
		if err != nil {
			log.Error("bad alerts file", "err", err)
			os.Exit(2)
		}
	}

	var tenants *tenant.Registry
	if *tenantsFile != "" {
		tenants, err = tenant.Load(*tenantsFile)
		if err != nil {
			log.Error("bad tenants file", "err", err)
			os.Exit(2)
		}
	}

	// Both modes serve the same way: one listen loop, drained on
	// SIGINT/SIGTERM. Only a worker self-registers with a coordinator.
	var svc interface {
		Handler() http.Handler
		Shutdown(context.Context) error
	}
	join := ""
	if *clusterMode {
		coord, err := cluster.New(cluster.Config{
			DefaultInsts:       *defaultInsts,
			MaxInsts:           *maxInsts,
			CacheSize:          *cacheSize,
			MaxSweepPoints:     *maxSweepPts,
			WorkerSlots:        *workerSlots,
			PointDeadline:      *pointDeadline,
			PointRetries:       *pointRetries,
			HealthInterval:     *healthEvery,
			QuarantineAfter:    *quarAfter,
			QuarantineCooldown: *quarCooldown,
			DataDir:            *dataDir,
			TraceCacheDir:      *traceCacheDir,
			WorkerAPIKey:       *workerAPIKey,
			Tenants:            tenants,
			Logger:             log,
			Alerts:             alerts,
			ObsScrapeInterval:  *obsScrape,
			ObsRetention:       *obsRetain,
		})
		if err != nil {
			log.Error("bad configuration", "err", err)
			os.Exit(2)
		}
		coord.Start()
		svc = coord
	} else {
		// In a fleet, name this worker's spans by the URL the
		// coordinator dials so merged traces get one track per worker.
		serviceName := ""
		if *joinURL != "" {
			serviceName = advertised(*advertiseURL, *addr)
		}
		srv, err := server.New(server.Config{
			Workers:        *workers,
			QueueDepth:     *queueDepth,
			CacheSize:      *cacheSize,
			DefaultInsts:   *defaultInsts,
			MaxInsts:       *maxInsts,
			JobTimeout:     *jobTimeout,
			MaxSweepPoints: *maxSweepPts,
			ServiceName:    serviceName,
			DataDir:        *dataDir,
			TraceCacheDir:  *traceCacheDir,
			Tenants:        tenants,
			Logger:         log,

			Alerts:            alerts,
			ObsScrapeInterval: *obsScrape,
			ObsRetention:      *obsRetain,
		})
		if err != nil {
			log.Error("bad configuration", "err", err)
			os.Exit(2)
		}
		srv.Start()
		svc = srv
		join = *joinURL
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("lvpd listening", "addr", *addr, "cluster", *clusterMode)

	if join != "" {
		go selfRegister(ctx, log, join, advertised(*advertiseURL, *addr), *joinAPIKey)
	}

	select {
	case err := <-errCh:
		log.Error("http server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("shutting down", "drain_timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Warn("drain incomplete", "err", err)
	}
	log.Info("bye")
}

// buildLogger assembles the process logger: text or JSON at the chosen
// level, wrapped with trace correlation so every line logged under a
// traced request carries trace_id/span_id.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("lvpd: -log-level must be debug, info, warn, or error; got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var handler slog.Handler
	switch strings.ToLower(format) {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	case "text", "":
		handler = slog.NewTextHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("lvpd: -log-format must be text or json, got %q", format)
	}
	return slog.New(otrace.NewLogHandler(handler)), nil
}

// advertised derives the URL the coordinator should dial for this
// worker: -advertise verbatim when set, otherwise -addr with a
// localhost host filled in for bare ":8080"-style listen addresses.
func advertised(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

// selfRegister registers this worker with the coordinator, retrying
// with a flat delay until it succeeds or the process is shutting down.
// Registration is idempotent on the coordinator, so retrying after an
// ambiguous failure is safe.
func selfRegister(ctx context.Context, log *slog.Logger, coordinator, advertise, apiKey string) {
	body, _ := json.Marshal(map[string]string{"url": advertise})
	target := strings.TrimSuffix(coordinator, "/") + "/v1/cluster/workers"
	for {
		err := postRegistration(ctx, target, body, apiKey)
		if err == nil {
			log.Info("registered with coordinator", "coordinator", coordinator, "advertise", advertise)
			return
		}
		log.Warn("coordinator registration failed; retrying", "coordinator", coordinator, "err", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Second):
		}
	}
}

func postRegistration(ctx context.Context, target string, body []byte, apiKey string) error {
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("coordinator returned %d", resp.StatusCode)
	}
	return nil
}
