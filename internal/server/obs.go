package server

import (
	"math"
	"time"

	"repro/internal/obs/tsdb"
)

// onAlertTransition is the alerter's in-process hook: when a rule
// fires, every running job's black box is dumped with the rule as
// trigger — the flight store then holds the state of the fleet's work
// at the moment the SLO broke, even if those jobs later finish clean.
func (s *Server) onAlertTransition(n tsdb.Notification) {
	if n.State != tsdb.AlertFiring {
		return
	}
	for _, j := range s.runningJobs() {
		j.flight.note("alert fired: " + n.Rule)
		s.dumpFlight(j, "alert:"+n.Rule)
	}
}

// registerTenantStarvationGauges publishes per-tenant queueing health:
// the head-of-line wait (how long the tenant's oldest queued job has
// been waiting) and that wait normalized by the recent average job
// duration. A starvation ratio persistently far above the worker count
// means the tenant's share of the pool is not keeping up.
func (s *Server) registerTenantStarvationGauges(name string) {
	s.reg.GaugeFunc("lvpd_tenant_queue_wait_seconds",
		"Age of the tenant's oldest queued job (head-of-line wait).",
		func() float64 { return s.sched.OldestWait(name, time.Now()).Seconds() },
		"tenant", name)
	s.reg.GaugeFunc("lvpd_tenant_starvation_ratio",
		"Head-of-line wait divided by the recent average job duration.",
		func() float64 {
			ewma := math.Float64frombits(s.drainEWMA.Load())
			if ewma <= 0 {
				return 0
			}
			return s.sched.OldestWait(name, time.Now()).Seconds() / ewma
		},
		"tenant", name)
}
