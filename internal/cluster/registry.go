package cluster

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Worker states reported by WorkerStatus.State.
const (
	// WorkerActive: registered, passing health probes, dispatchable.
	WorkerActive = "active"

	// WorkerQuarantined: the circuit is open after consecutive
	// failures; not dispatchable until a half-open probe succeeds.
	WorkerQuarantined = "quarantined"

	// WorkerDrained: an operator removed the worker from service; its
	// in-flight points were re-dispatched. Re-registering the same URL
	// reactivates it.
	WorkerDrained = "drained"
)

// worker is one registered lvpd process. All fields are guarded by the
// coordinator's mutex; the obs instruments are internally atomic.
type worker struct {
	id  string
	url string

	state         string
	inflight      int
	consecFails   int
	cooldownUntil time.Time
	registered    time.Time
	lastSeen      time.Time
	health        server.Health

	// attempts tracks in-flight dispatches so quarantine and drain can
	// cancel (steal) them.
	attempts map[*attempt]struct{}

	mDispatched  *obs.Counter
	mRetried     *obs.Counter
	mStolen      *obs.Counter
	mQuarantine  *obs.Counter
	mInflight    *obs.Gauge
	mDispatchDur *obs.Histogram
}

// attempt is one dispatch of one point to one worker. stolen is set
// (under the coordinator mutex) before a coordinator-initiated cancel,
// so the dispatch loop can tell a stolen attempt from an ordinary
// failure.
type attempt struct {
	w      *worker
	ctx    context.Context
	cancel context.CancelFunc
	stolen bool
}

// WorkerStatus is the JSON view of a registered worker.
type WorkerStatus struct {
	ID                  string    `json:"id"`
	URL                 string    `json:"url"`
	State               string    `json:"state"`
	Inflight            int       `json:"inflight"`
	ConsecutiveFailures int       `json:"consecutive_failures,omitempty"`
	QueueDepth          int       `json:"queue_depth"`
	SimMIPS             float64   `json:"sim_mips,omitempty"`
	Registered          time.Time `json:"registered"`
	LastSeen            time.Time `json:"last_seen,omitempty"`
}

func (w *worker) status() WorkerStatus {
	return WorkerStatus{
		ID:                  w.id,
		URL:                 w.url,
		State:               w.state,
		Inflight:            w.inflight,
		ConsecutiveFailures: w.consecFails,
		QueueDepth:          w.health.QueueDepth,
		SimMIPS:             w.health.SimMIPS,
		Registered:          w.registered,
		LastSeen:            w.lastSeen,
	}
}

// RegisterWorker adds (or reactivates) the lvpd at rawURL after a
// synchronous health probe. It returns the worker's status and whether
// the registration created a new entry.
func (c *Coordinator) RegisterWorker(ctx context.Context, rawURL string) (WorkerStatus, bool, error) {
	u, err := url.Parse(strings.TrimSuffix(rawURL, "/"))
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return WorkerStatus{}, false, fmt.Errorf("worker url must be absolute http(s), got %q", rawURL)
	}
	base := u.String()

	// Probe before admitting: a worker that cannot answer /healthz now
	// would only be quarantined moments later.
	probeCtx, cancel := context.WithTimeout(ctx, c.cfg.HealthTimeout)
	defer cancel()
	h, err := c.workerClient(base, nil).health(probeCtx)
	if err != nil {
		return WorkerStatus{}, false, fmt.Errorf("worker %s failed its registration health probe: %w", base, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Either branch makes a worker dispatchable: wake waiting points.
	defer c.wakeWaitersLocked()
	if w, ok := c.byURL[base]; ok {
		w.state = WorkerActive
		w.consecFails = 0
		w.health = h
		w.lastSeen = time.Now()
		return w.status(), false, nil
	}
	c.nextWorker++
	id := fmt.Sprintf("w-%03d", c.nextWorker)
	w := &worker{
		id:         id,
		url:        base,
		state:      WorkerActive,
		registered: time.Now(),
		lastSeen:   time.Now(),
		health:     h,
		attempts:   make(map[*attempt]struct{}),

		mDispatched:  c.reg.Counter("lvpc_worker_dispatched_total", "Dispatch attempts per worker.", "worker", id),
		mRetried:     c.reg.Counter("lvpc_worker_retried_total", "Retried dispatches per worker.", "worker", id),
		mStolen:      c.reg.Counter("lvpc_worker_stolen_total", "Points stolen off this worker.", "worker", id),
		mQuarantine:  c.reg.Counter("lvpc_worker_quarantined_total", "Circuit-open transitions per worker.", "worker", id),
		mInflight:    c.reg.Gauge("lvpc_worker_inflight", "In-flight dispatches per worker.", "worker", id),
		mDispatchDur: c.reg.Histogram("lvpc_worker_dispatch_seconds", "Wall time of one dispatch attempt, submit through the job's terminal event, per worker.", nil, "worker", id),
	}
	c.reg.GaugeFunc("lvpc_worker_sim_mips",
		"Worker-reported simulation throughput (millions of instructions per second).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return w.health.SimMIPS
		}, "worker", id)
	c.workers[id] = w
	c.byURL[base] = w
	c.log.Info("worker registered", "worker", id, "url", base)
	return w.status(), true, nil
}

// DrainWorker removes a worker from scheduling and steals its in-flight
// points for re-dispatch elsewhere. The worker stays listed as drained;
// re-registering its URL reactivates it.
func (c *Coordinator) DrainWorker(id string) (WorkerStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return WorkerStatus{}, false
	}
	if w.state != WorkerDrained {
		w.state = WorkerDrained
		c.stealAttemptsLocked(w)
		c.log.Info("worker drained", "worker", id, "url", w.url)
	}
	return w.status(), true
}

// Workers lists registered workers, sorted by id.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// stealAttemptsLocked cancels every in-flight attempt on w so the
// dispatch loops re-dispatch those points elsewhere. Caller holds c.mu.
func (c *Coordinator) stealAttemptsLocked(w *worker) {
	for att := range w.attempts {
		att.stolen = true
		att.cancel()
	}
}

// noteWorkerFailureLocked advances the circuit breaker after a
// transport-level failure (probe or dispatch). Caller holds c.mu.
func (c *Coordinator) noteWorkerFailureLocked(w *worker, err error) {
	w.consecFails++
	if w.state == WorkerActive && w.consecFails >= c.cfg.QuarantineAfter {
		c.quarantineLocked(w, err)
	}
}

// quarantineLocked opens w's circuit: no dispatches until a half-open
// probe succeeds, and every in-flight attempt is stolen. Caller holds
// c.mu.
func (c *Coordinator) quarantineLocked(w *worker, cause error) {
	w.state = WorkerQuarantined
	w.cooldownUntil = time.Now().Add(c.cfg.QuarantineCooldown)
	w.mQuarantine.Inc()
	c.mQuarantined.Inc()
	c.stealAttemptsLocked(w)
	c.log.Warn("worker quarantined", "worker", w.id, "url", w.url,
		"consecutive_failures", w.consecFails, "cause", cause)
}

// noteWorkerSuccess resets the circuit after any successful exchange.
func (c *Coordinator) noteWorkerSuccess(w *worker, h *server.Health) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.consecFails = 0
	w.lastSeen = time.Now()
	if h != nil {
		w.health = *h
	}
	if w.state == WorkerQuarantined {
		w.state = WorkerActive
		c.wakeWaitersLocked()
		c.log.Info("worker reactivated", "worker", w.id, "url", w.url)
	}
}

// noteWorkerFailure is noteWorkerFailureLocked for callers not holding
// the coordinator mutex.
func (c *Coordinator) noteWorkerFailure(w *worker, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.state == WorkerQuarantined {
		// Half-open probe (or a straggling dispatch) failed: keep the
		// circuit open for another cool-down.
		w.cooldownUntil = time.Now().Add(c.cfg.QuarantineCooldown)
		w.consecFails++
		return
	}
	if w.state == WorkerDrained {
		return
	}
	c.noteWorkerFailureLocked(w, err)
}

// prober periodically health-checks active workers and half-open-probes
// quarantined ones whose cool-down elapsed.
func (c *Coordinator) prober() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.lifeCtx.Done():
			return
		case <-t.C:
		}
		c.probeAll()
	}
}

func (c *Coordinator) probeAll() {
	c.mu.Lock()
	targets := make([]*worker, 0, len(c.workers))
	now := time.Now()
	for _, w := range c.workers {
		switch w.state {
		case WorkerActive:
			targets = append(targets, w)
		case WorkerQuarantined:
			if now.After(w.cooldownUntil) {
				targets = append(targets, w)
			}
		}
	}
	c.mu.Unlock()

	for _, w := range targets {
		ctx, cancel := context.WithTimeout(c.lifeCtx, c.cfg.HealthTimeout)
		h, err := c.workerClient(w.url, nil).health(ctx)
		cancel()
		if err != nil {
			c.noteWorkerFailure(w, err)
			continue
		}
		c.noteWorkerSuccess(w, &h)
	}
}
