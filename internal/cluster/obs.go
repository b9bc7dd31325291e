package cluster

import (
	"repro/internal/obs/tsdb"
)

// registerFleetGauges publishes the worker count by registry state.
func (c *Coordinator) registerFleetGauges() {
	for _, state := range []string{WorkerActive, WorkerQuarantined, WorkerDrained} {
		st := state
		c.Registry().GaugeFunc("lvpc_workers", "Registered workers by state.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				n := 0
				for _, w := range c.workers {
					if w.state == st {
						n++
					}
				}
				return float64(n)
			}, "state", st)
	}
}

// workerTargets federates the fleet into the embedded store: one
// /metrics scrape per non-drained worker, merged under a
// worker="<id>" label so one query ranges over the whole fleet.
// Re-evaluated every tick, so workers joining, draining, or being
// quarantined change the scrape set without restarts (a quarantined
// worker stays scraped: its metrics going stale versus its process
// being up is exactly what an operator wants to see).
func (c *Coordinator) workerTargets() []tsdb.Target {
	c.mu.Lock()
	defer c.mu.Unlock()
	var targets []tsdb.Target
	for id, w := range c.workers {
		if w.state == WorkerDrained {
			continue
		}
		targets = append(targets, tsdb.HTTPTarget(id, w.url+"/metrics",
			c.hc, c.cfg.HealthTimeout, "worker", id))
	}
	return targets
}

// queryAnnotations annotates every GET /v1/metrics/query response with
// per-target scrape health and the quarantined worker set, so a
// dashboard reading a merged series knows which workers' samples are
// stale rather than silently trusting the merge.
func (c *Coordinator) queryAnnotations() map[string]any {
	statuses := c.Collector().Statuses()
	var stale []string
	for _, st := range statuses {
		if !st.Healthy {
			stale = append(stale, st.Key)
		}
	}
	c.mu.Lock()
	var quarantined []string
	for id, wk := range c.workers {
		if wk.state == WorkerQuarantined {
			quarantined = append(quarantined, id)
		}
	}
	c.mu.Unlock()
	extra := map[string]any{"targets": statuses}
	if len(stale) > 0 {
		extra["stale_targets"] = stale
	}
	if len(quarantined) > 0 {
		extra["quarantined_workers"] = quarantined
	}
	return extra
}
