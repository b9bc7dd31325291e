package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
)

// runPoint is one point's dispatch state machine, run on its own
// goroutine:
//
//	pending -> dispatch to least-loaded worker -> done
//	   ^          | failure: backoff+jitter, bounded retries
//	   |          | steal: worker quarantined/drained, free re-dispatch
//	   +----------+ otherwise -> failed
//
// Every dispatch submits the same canonical spec, so workers answer
// repeats from their result caches and the coordinator can retry
// without double-counting work.
func (c *Coordinator) runPoint(sw *sweep, pt *point) {
	defer c.runners.Done()
	fails := 0
	steals := 0
	// Steals are free (the point did nothing wrong), but bounded so a
	// fleet that keeps collapsing mid-job cannot loop a point forever.
	maxSteals := 4 * (c.cfg.PointRetries + 1)
	for {
		if c.lifeCtx.Err() != nil {
			// Not persisted: an accepted point the shutdown abandons is
			// still owed, and the WAL re-dispatches it on restart.
			c.abandonPoint(sw, pt, "coordinator shutting down")
			return
		}
		att, slotFreed := c.acquireWorker()
		if att == nil {
			// Nothing is dispatchable (all workers quarantined, drained,
			// or saturated). Points wait indefinitely for capacity: a
			// released slot or a worker turning active wakes them, so a
			// fleet that is temporarily empty recovers as soon as a
			// worker registers.
			select {
			case <-c.lifeCtx.Done():
			case <-slotFreed:
			}
			continue
		}
		c.notePointRunning(sw, pt, att.w)
		res, err := c.attemptOnce(sw, att, pt)
		stolen := c.releaseAttempt(att)
		if err == nil {
			c.Cache().Put(pt.hash, res)
			c.settlePoint(sw, pt, &res, "")
			return
		}

		var perm *permanentError
		if errors.As(err, &perm) {
			c.settlePoint(sw, pt, nil, err.Error())
			return
		}
		if stolen {
			steals++
			c.mStolen.Inc()
			att.w.mStolen.Inc()
			c.mu.Lock()
			pt.steals = steals
			c.mu.Unlock()
			if steals > maxSteals {
				c.settlePoint(sw, pt, nil, fmt.Sprintf("re-dispatched %d times off dying workers: %v", steals, err))
				return
			}
			// No backoff: the worker died, the point is innocent.
			continue
		}
		fails++
		if fails > c.cfg.PointRetries {
			c.settlePoint(sw, pt, nil, fmt.Sprintf("gave up after %d attempts: %v", fails, err))
			return
		}
		c.mRetried.Inc()
		att.w.mRetried.Inc()
		c.log.Info("point retrying", "sweep", sw.id, "spec", pt.hash,
			"attempt", fails, "worker", att.w.id, "err", err)
		select {
		case <-c.lifeCtx.Done():
		case <-time.After(backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, fails)):
		}
	}
}

// backoffDelay returns the delay before retry number `fails` (1-based):
// base doubled per failure, capped at max, jittered to 50–150% so
// simultaneous failures do not re-dispatch in lockstep.
func backoffDelay(base, max time.Duration, fails int) time.Duration {
	shift := fails - 1
	if shift > 20 {
		shift = 20
	}
	d := base << uint(shift)
	if d > max || d <= 0 {
		d = max
	}
	jittered := time.Duration(float64(d) * (0.5 + rand.Float64()))
	if jittered <= 0 {
		jittered = base
	}
	return jittered
}

// acquireWorker reserves a dispatch slot on the least-loaded active
// worker (ties broken by reported queue depth, then id) and returns the
// attempt handle. When nothing is dispatchable it returns a nil attempt
// and the channel the next slot release or worker activation closes;
// taking both under one lock means no wake-up is lost in between.
func (c *Coordinator) acquireWorker() (*attempt, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *worker
	for _, w := range c.workers {
		if w.state != WorkerActive || w.inflight >= c.cfg.WorkerSlots {
			continue
		}
		if best == nil {
			best = w
			continue
		}
		switch {
		case w.inflight != best.inflight:
			if w.inflight < best.inflight {
				best = w
			}
		case w.health.QueueDepth != best.health.QueueDepth:
			if w.health.QueueDepth < best.health.QueueDepth {
				best = w
			}
		case w.id < best.id:
			best = w
		}
	}
	if best == nil {
		return nil, c.slotFreed
	}
	ctx, cancel := context.WithCancel(c.lifeCtx)
	att := &attempt{w: best, ctx: ctx, cancel: cancel}
	best.attempts[att] = struct{}{}
	best.inflight++
	best.mInflight.Set(int64(best.inflight))
	best.mDispatched.Inc()
	c.mDispatched.Inc()
	c.mInflight.Add(1)
	return att, nil
}

// releaseAttempt returns the attempt's slot and reports whether the
// attempt was stolen (cancelled by quarantine or drain rather than
// failing on its own).
func (c *Coordinator) releaseAttempt(att *attempt) bool {
	att.cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(att.w.attempts, att)
	att.w.inflight--
	att.w.mInflight.Set(int64(att.w.inflight))
	c.mInflight.Add(-1)
	c.wakeWaitersLocked()
	return att.stolen
}

// wakeWaitersLocked wakes every point waiting for a dispatch slot; they
// re-run acquireWorker. Call it whenever a slot may have opened: a
// release, or a worker turning active. Caller holds c.mu.
func (c *Coordinator) wakeWaitersLocked() {
	close(c.slotFreed)
	c.slotFreed = make(chan struct{})
}

// attemptOnce runs one dispatch attempt end to end: submit the point's
// canonical spec, then follow the job's event stream until its terminal
// event, the attempt deadline passes, or the attempt is cancelled. The
// terminal event carries the result, and progress events re-export the
// worker's live view through the sweep status. Worker blame
// (circuit-breaker accounting) is applied here; the caller only
// classifies the returned error as permanent, stolen, or retryable.
// The attempt runs inside a "dispatch" span parented on the sweep's
// root span; the submit POST carries its traceparent, so the worker's
// job/baseline/run spans join the same trace.
func (c *Coordinator) attemptOnce(sw *sweep, att *attempt, pt *point) (server.RunResult, error) {
	ctx, cancel := context.WithTimeout(att.ctx, c.cfg.PointDeadline)
	defer cancel()
	ctx, span := c.Tracer().StartSpan(otrace.ContextWithSpan(ctx, sw.span), "dispatch",
		otrace.String("spec", pt.hash),
		otrace.String("worker", att.w.id),
		otrace.String("worker_url", att.w.url))
	start := time.Now()
	defer func() {
		att.w.mDispatchDur.Observe(time.Since(start).Seconds())
		span.Finish()
	}()
	cl := c.workerClient(att.w.url, sw)

	sim := pt.sim
	st, err := cl.submitJob(ctx, server.JobRequest{Spec: &sim})
	if err == nil && !server.TerminalState(st.State) {
		id := st.ID
		st, err = cl.followJob(ctx, id, func(p *server.ProgressView) {
			c.mu.Lock()
			pt.progress = p
			c.mu.Unlock()
		})
		if err != nil && ctx.Err() != nil {
			// Deadline or steal. Release the worker's slot promptly and
			// try to stop the abandoned job so the worker does not burn
			// cycles on a point the coordinator re-dispatched.
			go func() {
				bg, bgCancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
				defer bgCancel()
				_ = cl.cancelJob(bg, id)
			}()
			err := ctx.Err()
			if !c.stolen(att) && errors.Is(err, context.DeadlineExceeded) {
				// The worker sat on the job past the attempt deadline.
				c.noteWorkerFailure(att.w, err)
			}
			return server.RunResult{}, fmt.Errorf("attempt on %s aborted: %w", att.w.id, err)
		}
	}
	if err != nil {
		c.classifyAttemptError(att, err)
		return server.RunResult{}, err
	}
	if st.State != server.StateDone {
		// The worker is healthy — it answered — but the job did not
		// survive (per-job timeout, local cancel). Retryable without
		// blaming the worker.
		return server.RunResult{}, fmt.Errorf("worker %s reported job %s %s: %s", att.w.id, st.ID, st.State, st.Error)
	}
	if st.Result == nil {
		err := &workerError{fmt.Errorf("job %s done without a result", st.ID)}
		c.noteWorkerFailure(att.w, err)
		return server.RunResult{}, err
	}
	c.noteWorkerSuccess(att.w, nil)
	return *st.Result, nil
}

// stolen reports whether quarantine or drain cancelled att.
func (c *Coordinator) stolen(att *attempt) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return att.stolen
}

// classifyAttemptError applies circuit-breaker accounting for one
// failed exchange: transport errors and 5xx blame the worker; 429 and
// permanent spec rejections prove the worker alive.
func (c *Coordinator) classifyAttemptError(att *attempt, err error) {
	var we *workerError
	switch {
	case errors.As(err, &we):
		if c.stolen(att) {
			return // the cancel itself caused the failure
		}
		c.noteWorkerFailure(att.w, err)
	case errors.Is(err, errShed):
		c.noteWorkerSuccess(att.w, nil)
	default:
		var perm *permanentError
		if errors.As(err, &perm) {
			c.noteWorkerSuccess(att.w, nil)
		}
	}
}

// notePointRunning records a dispatch in the sweep state.
func (c *Coordinator) notePointRunning(sw *sweep, pt *point, w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt.state = PointRunning
	pt.workerID = w.id
	pt.attempts++
}

// settlePoint finalizes a point as done (res != nil) or failed, and
// records the settlement durably.
func (c *Coordinator) settlePoint(sw *sweep, pt *point, res *server.RunResult, errMsg string) {
	done := c.markSettled(sw, pt, res, errMsg)
	c.persistPoint(sw, pt, res, errMsg, done)
	if res != nil {
		if ctr := c.mTenantPoints[sw.tenant]; ctr != nil {
			ctr.Inc()
		}
	}
}

// abandonPoint finalizes a point the shutdown cancelled WITHOUT
// persisting: the WAL keeps owing it, so the next start re-dispatches.
func (c *Coordinator) abandonPoint(sw *sweep, pt *point, errMsg string) {
	c.markSettled(sw, pt, nil, errMsg)
}

// markSettled applies a point's terminal transition to the in-memory
// sweep state and reports whether it was the sweep's last open point.
func (c *Coordinator) markSettled(sw *sweep, pt *point, res *server.RunResult, errMsg string) bool {
	c.mu.Lock()
	pt.finished = time.Now()
	pt.progress = nil
	if res != nil {
		pt.state = PointDone
		pt.result = res
		pt.errMsg = ""
	} else {
		pt.state = PointFailed
		pt.errMsg = errMsg
	}
	done := sw.terminalLocked()
	st := sw.statusLocked(false)
	c.mu.Unlock()
	if done {
		sw.span.Finish()
	}

	if res != nil {
		c.mPtsDone.Inc()
	} else {
		c.mPtsFailed.Inc()
		c.log.Warn("point failed", "sweep", sw.id, "spec", pt.hash, "err", errMsg)
	}
	if done {
		c.log.Info("sweep complete", "sweep", sw.id, "total", st.Total,
			"unique", st.Unique, "done", st.Done, "failed", st.Failed,
			"cached", st.Cached, "deduped", st.Deduped)
	}
	return done
}
