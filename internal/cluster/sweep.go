package cluster

import (
	"context"
	"fmt"
	"strconv"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/spec"
)

// Point states reported by PointStatus.State.
const (
	PointPending = "pending"
	PointRunning = "running"
	PointDone    = "done"
	PointFailed  = "failed"
)

// sweep is one accepted POST /v1/sweeps: its unique points plus the
// expansion bookkeeping. Guarded by the coordinator mutex.
type sweep struct {
	id      string
	tenant  string // submitting tenant (attribution, WAL, worker proxying)
	created time.Time
	total   int // expanded points, duplicates included
	deduped int // expansions collapsed onto an earlier point
	cached  int // unique points answered from the shared cache at submit
	points  []*point

	// span is the sweep's root span, open from submit until the last
	// point settles; every dispatch attempt parents on it, so the whole
	// distributed execution shares one trace. Set once before the
	// dispatch goroutines launch, never reassigned (safe to read
	// without the mutex).
	span *otrace.Span
}

// point is one unique spec hash within a sweep. Guarded by the
// coordinator mutex.
type point struct {
	hash     string
	sim      spec.Sim
	label    string
	count    int // expansions sharing this hash
	state    string
	cacheHit bool
	attempts int
	steals   int
	workerID string
	errMsg   string
	result   *server.RunResult
	finished time.Time

	// progress is the latest ProgressView the point's worker streamed
	// for its job; re-exported through SweepStatus while the point
	// runs.
	progress *server.ProgressView
}

// PointStatus is the JSON view of one unique sweep point.
type PointStatus struct {
	SpecHash string     `json:"spec_hash"`
	Workload string     `json:"workload"`
	Label    string     `json:"predictor,omitempty"`
	Count    int        `json:"count"`
	State    string     `json:"state"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Steals   int        `json:"steals,omitempty"`
	Worker   string     `json:"worker,omitempty"`
	Error    string     `json:"error,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Progress is the live view re-exported from the point's worker
	// (running points only).
	Progress *server.ProgressView `json:"progress,omitempty"`

	Result *server.RunResult `json:"result,omitempty"`
}

// SweepStatus is the aggregated view of a sweep: counts by point state
// plus (optionally) every unique point. Completions stream into it as
// workers finish, so polling GET /v1/sweeps/{id} follows the sweep
// live.
type SweepStatus struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant,omitempty"`
	State   string    `json:"state"` // running | done
	Created time.Time `json:"created"`

	// TraceID names the sweep's distributed trace: coordinator dispatch
	// spans plus (merged at GET /debug/traces/{id}) the workers' job
	// spans.
	TraceID string `json:"trace_id,omitempty"`

	Total   int `json:"total"`
	Unique  int `json:"unique"`
	Deduped int `json:"deduped,omitempty"`
	Cached  int `json:"cached,omitempty"`

	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`

	Points []PointStatus `json:"points,omitempty"`
}

// statusLocked snapshots the sweep. Caller holds c.mu.
func (sw *sweep) statusLocked(includePoints bool) SweepStatus {
	st := SweepStatus{
		ID:      sw.id,
		Tenant:  sw.tenant,
		Created: sw.created,
		Total:   sw.total,
		Unique:  len(sw.points),
		Deduped: sw.deduped,
		Cached:  sw.cached,
	}
	if sw.span != nil {
		st.TraceID = sw.span.TraceID
	}
	for _, pt := range sw.points {
		switch pt.state {
		case PointPending:
			st.Pending++
		case PointRunning:
			st.Running++
		case PointDone:
			st.Done++
		case PointFailed:
			st.Failed++
		}
		if includePoints {
			ps := PointStatus{
				SpecHash: pt.hash,
				Workload: pt.sim.Workload.Name,
				Label:    pt.label,
				Count:    pt.count,
				State:    pt.state,
				CacheHit: pt.cacheHit,
				Attempts: pt.attempts,
				Steals:   pt.steals,
				Worker:   pt.workerID,
				Error:    pt.errMsg,
				Result:   pt.result,
			}
			if pt.state == PointRunning {
				ps.Progress = pt.progress
			}
			if !pt.finished.IsZero() {
				t := pt.finished
				ps.Finished = &t
			}
			st.Points = append(st.Points, ps)
		}
	}
	if st.Pending+st.Running == 0 {
		st.State = "done"
	} else {
		st.State = "running"
	}
	return st
}

// terminalLocked reports whether every point reached a terminal state.
// Caller holds c.mu.
func (sw *sweep) terminalLocked() bool {
	for _, pt := range sw.points {
		if pt.state != PointDone && pt.state != PointFailed {
			return false
		}
	}
	return true
}

// StartSweep expands, dedups, and launches a sweep: points whose spec
// hash is already in the shared cache are answered immediately,
// duplicate hashes collapse onto one dispatch, and every remaining
// point gets a dispatch goroutine. The returned status is the submit-
// time snapshot (without per-point detail). ctx seeds the sweep's
// trace: when it carries a span (e.g. the submit request arrived with
// a traceparent header), the sweep joins that trace; otherwise the
// sweep roots a fresh one.
func (c *Coordinator) StartSweep(ctx context.Context, req server.SweepRequest) (SweepStatus, error) {
	if !c.accepting.Load() {
		return SweepStatus{}, fmt.Errorf("coordinator is shutting down")
	}
	tn := c.RequestTenant(ctx)
	maxPoints := c.cfg.MaxSweepPoints
	if tn.MaxSweepPoints > 0 && tn.MaxSweepPoints < maxPoints {
		maxPoints = tn.MaxSweepPoints
	}
	points, err := req.Expand(c.defaults(), maxPoints)
	if err != nil {
		return SweepStatus{}, err
	}

	c.mu.Lock()
	c.nextSweep++
	id := fmt.Sprintf("s-%04d", c.nextSweep)
	c.mu.Unlock()

	// Expansion bookkeeping happens on locals: the sweep is invisible
	// until it is published below, after the WAL accepted it, so the
	// fsync never runs under the coordinator mutex.
	sw := &sweep{
		id:      id,
		tenant:  tn.Name,
		created: time.Now(),
		total:   len(points),
	}
	_, sw.span = c.Tracer().StartSpan(ctx, "sweep",
		otrace.String("sweep_id", sw.id),
		otrace.String("tenant", sw.tenant),
		otrace.String("total", strconv.Itoa(len(points))))
	seen := make(map[string]*point, len(points))
	var launch []*point
	for _, p := range points {
		if pt, ok := seen[p.Hash]; ok {
			pt.count++
			sw.deduped++
			c.mPtsDeduped.Inc()
			continue
		}
		pt := &point{hash: p.Hash, sim: p.Sim, label: p.Label, count: 1, state: PointPending}
		if res, ok := c.LookupResult(p.Hash); ok {
			pt.state = PointDone
			pt.cacheHit = true
			pt.result = &res
			pt.finished = time.Now()
			sw.cached++
			c.mPtsCached.Inc()
		} else {
			launch = append(launch, pt)
		}
		seen[p.Hash] = pt
		sw.points = append(sw.points, pt)
	}

	// Durable before accepted: once the client sees the 202, a restart
	// owes the sweep.
	if err := c.persistSweepStarted(sw); err != nil {
		sw.span.Finish()
		c.log.Error("sweep rejected: wal append failed", "sweep", sw.id, "err", err)
		return SweepStatus{}, fmt.Errorf("%w: %v", errDurability, err)
	}

	c.mu.Lock()
	c.sweeps[sw.id] = sw
	c.order = append(c.order, sw.id)
	c.pruneSweepsLocked()
	status := sw.statusLocked(false)
	c.runners.Add(len(launch))
	done := sw.terminalLocked() // every point cached at submit
	c.mu.Unlock()
	if done {
		sw.span.Finish()
		c.persistSweepDone(sw)
	}
	if ctr := c.mTenantSweeps[sw.tenant]; ctr != nil {
		ctr.Inc()
	}

	// Pre-ship the sweep's uploaded traces before any point is
	// dispatched: a worker knows an ext: workload only once it holds
	// the trace. Synthetic streams are not shipped; each worker
	// generates the ones its points use.
	c.shipTraces(sw, launch)

	for _, pt := range launch {
		go c.runPoint(sw, pt)
	}
	c.log.Info("sweep accepted", "sweep", sw.id, "tenant", sw.tenant, "total", sw.total,
		"unique", len(sw.points), "cached", sw.cached, "deduped", sw.deduped)
	return status, nil
}

// pruneSweepsLocked forgets the oldest finished sweeps beyond the
// retention cap. Caller holds c.mu.
func (c *Coordinator) pruneSweepsLocked() {
	for len(c.order) > c.cfg.RetainedSweeps {
		old := c.sweeps[c.order[0]]
		if old != nil && !old.terminalLocked() {
			break
		}
		delete(c.sweeps, c.order[0])
		c.order = c.order[1:]
	}
}

// SweepStatusByID returns a sweep's aggregated status.
func (c *Coordinator) SweepStatusByID(id string, includePoints bool) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	if !ok {
		return SweepStatus{}, false
	}
	return sw.statusLocked(includePoints), true
}

// SweepStatuses lists retained sweeps, oldest first, without per-point
// detail.
func (c *Coordinator) SweepStatuses() []SweepStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SweepStatus, 0, len(c.order))
	for _, id := range c.order {
		if sw := c.sweeps[id]; sw != nil {
			out = append(out, sw.statusLocked(false))
		}
	}
	return out
}
