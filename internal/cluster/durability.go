package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
)

// errDurability marks a submit that failed because the WAL could not
// record it; the API maps it to 500 rather than blaming the request.
var errDurability = errors.New("durable store write failed")

// persistSweepStarted records an accepted sweep and its unique points
// durably; points already answered from the cache at submit are
// settled in the same breath so a restart does not re-dispatch them.
// No-op without a data dir. The sweep is not yet published, so its
// fields are safe to read without the mutex.
func (c *Coordinator) persistSweepStarted(sw *sweep) error {
	if c.Store() == nil {
		return nil
	}
	pts := make([]store.SweepPoint, 0, len(sw.points))
	for _, pt := range sw.points {
		raw, err := json.Marshal(pt.sim)
		if err != nil {
			return err
		}
		pts = append(pts, store.SweepPoint{Hash: pt.hash, Spec: raw, Label: pt.label, Count: pt.count})
	}
	if err := c.Store().AppendSweepStarted(sw.id, sw.tenant, sw.total, pts); err != nil {
		return err
	}
	for _, pt := range sw.points {
		if pt.state != PointDone {
			continue
		}
		if err := c.warehousePut(sw, pt); err != nil {
			c.log.Error("warehouse put failed", "sweep", sw.id, "spec", pt.hash, "err", err)
		}
		if err := c.Store().AppendPointDone(sw.id, pt.hash); err != nil {
			return err
		}
	}
	return nil
}

// persistPoint records one point settlement (and, when it was the
// sweep's last, the sweep's completion). Persistence failures are
// logged, not fatal: the point already settled in memory, and the
// worst case after a crash is an idempotent re-dispatch.
func (c *Coordinator) persistPoint(sw *sweep, pt *point, res *server.RunResult, errMsg string, sweepDone bool) {
	if c.Store() == nil {
		return
	}
	var err error
	if res != nil {
		if werr := c.warehousePut(sw, pt); werr != nil {
			c.log.Error("warehouse put failed", "sweep", sw.id, "spec", pt.hash, "err", werr)
		}
		err = c.Store().AppendPointDone(sw.id, pt.hash)
	} else {
		err = c.Store().AppendPointFailed(sw.id, pt.hash, errMsg)
	}
	if err != nil {
		c.log.Error("wal append failed", "sweep", sw.id, "spec", pt.hash, "err", err)
		return
	}
	if sweepDone {
		c.persistSweepDone(sw)
	}
}

// persistSweepDone settles the sweep's WAL entry so a restart stops
// replaying it.
func (c *Coordinator) persistSweepDone(sw *sweep) {
	if c.Store() == nil {
		return
	}
	if err := c.Store().AppendSweepDone(sw.id); err != nil {
		c.log.Error("wal append failed", "sweep", sw.id, "err", err)
	}
}

// warehousePut retains a settled point's result beyond the LRU cache,
// attributed to the sweep's tenant and linked to its trace.
func (c *Coordinator) warehousePut(sw *sweep, pt *point) error {
	if pt.result == nil {
		return nil
	}
	raw, err := json.Marshal(pt.result)
	if err != nil {
		return err
	}
	workload := pt.result.Workload // the mix label ("a+b") for SMT points
	if workload == "" {
		workload = pt.sim.Workload.Name
	}
	return c.Store().Warehouse().Put(store.RunRecord{
		SpecHash:  pt.hash,
		Tenant:    sw.tenant,
		Workload:  workload,
		Predictor: pt.label,
		TraceID:   sw.span.TraceID,
		Time:      time.Now().UTC(),
		Result:    raw,
		Contexts:  pt.result.Contexts,
	})
}

// replaySweeps folds the WAL's pending sweeps back into live state at
// Open. Points the log already settled keep their outcome (done points
// recover their result from the warehouse); points it still owes are
// stashed on c.resume for Start to dispatch — or settled straight from
// the warehouse when an equivalent spec finished in the meantime.
// Points whose recorded spec no longer parses or validates are settled
// as failed rather than wedging the log forever. Runs before the
// coordinator serves requests, so no locking.
func (c *Coordinator) replaySweeps() error {
	st := c.Store().State()
	if st.MaxSweepID > c.nextSweep {
		c.nextSweep = st.MaxSweepID
	}
	for _, ps := range st.PendingSweeps {
		sw := &sweep{
			id:      ps.ID,
			tenant:  ps.Tenant,
			created: ps.Started,
			total:   ps.Total,
		}
		if sw.tenant == "" {
			sw.tenant = c.Tenants().Default().Name
		}
		// The old trace died with the old process; resumed dispatches
		// share a fresh root span instead.
		_, sw.span = c.Tracer().StartSpan(context.Background(), "sweep",
			otrace.String("sweep_id", sw.id),
			otrace.String("tenant", sw.tenant),
			otrace.String("resumed", "true"))

		owed := 0
		for _, p := range ps.Points {
			count := p.Count
			if count <= 0 {
				count = 1
			}
			pt := &point{hash: p.Hash, label: p.Label, count: count, state: PointPending}
			var sim spec.Sim
			err := json.Unmarshal(p.Spec, &sim)
			if err == nil {
				err = sim.Validate()
			}
			pt.sim = sim
			outcome, settled := ps.Done[p.Hash]
			switch {
			case settled && outcome == "":
				pt.state = PointDone
				pt.finished = time.Now()
				if res, ok := c.LookupResult(pt.hash); ok {
					pt.result = &res
				}
			case settled:
				pt.state = PointFailed
				pt.errMsg = outcome
				pt.finished = time.Now()
			case err != nil:
				pt.state = PointFailed
				pt.errMsg = "replay: " + err.Error()
				pt.finished = time.Now()
				c.log.Warn("replay: settling unusable sweep point as failed",
					"sweep", sw.id, "spec", pt.hash, "err", err)
				if aerr := c.Store().AppendPointFailed(sw.id, pt.hash, pt.errMsg); aerr != nil {
					return aerr
				}
			default:
				if res, ok := c.LookupResult(pt.hash); ok {
					pt.state = PointDone
					pt.cacheHit = true
					pt.result = &res
					pt.finished = time.Now()
					if aerr := c.Store().AppendPointDone(sw.id, pt.hash); aerr != nil {
						return aerr
					}
				} else {
					owed++
					c.resume = append(c.resume, resumedPoint{sw: sw, pt: pt})
				}
			}
			sw.points = append(sw.points, pt)
		}
		c.sweeps[sw.id] = sw
		c.order = append(c.order, sw.id)
		if sw.terminalLocked() {
			sw.span.Finish()
			c.persistSweepDone(sw)
		}
		c.log.Info("replay: recovered sweep", "sweep", sw.id, "tenant", sw.tenant,
			"unique", len(sw.points), "owed", owed)
	}
	return nil
}
