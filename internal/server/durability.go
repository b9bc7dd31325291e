package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/spec"
	"repro/internal/store"
)

// persistAccepted records an admitted job in the WAL. The append is
// durable (fsynced) on return: from this point a crash re-enqueues the
// job on restart. No-op without a data dir.
func (s *Server) persistAccepted(j *job) error {
	if s.st == nil || s.crashed.Load() {
		return nil
	}
	raw, err := json.Marshal(j.sim)
	if err != nil {
		return fmt.Errorf("server: encoding spec for WAL: %w", err)
	}
	return s.st.AppendJobAccepted(j.id, j.tenant, j.key, raw, j.label, j.timeoutMS)
}

// warehousePut retains a finished result beyond the LRU cache.
func (s *Server) warehousePut(j *job, res *RunResult) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	j.mu.Lock()
	traceID := j.traceID
	j.mu.Unlock()
	workload := res.Workload // the mix label ("a+b") for SMT runs
	if workload == "" {
		workload = j.sim.Workload.Name
	}
	return s.st.Warehouse().Put(store.RunRecord{
		SpecHash:  j.key,
		Tenant:    j.tenant,
		Workload:  workload,
		Predictor: j.label,
		TraceID:   traceID,
		Time:      time.Now().UTC(),
		Result:    raw,
		Contexts:  res.Contexts,
	})
}

// replay folds the WAL into owed work: every job accepted but not
// settled by the previous process is re-registered under its original
// ID and re-enqueued — or settled straight from the warehouse when an
// equivalent spec finished in the meantime. Jobs whose recorded spec
// no longer parses or validates are settled as failed rather than
// wedging the log forever.
func (s *Server) replay() error {
	st := s.st.State()
	s.mu.Lock()
	if st.MaxJobID > s.nextID {
		s.nextID = st.MaxJobID
	}
	s.mu.Unlock()

	for _, pj := range st.PendingJobs {
		var sim spec.Sim
		err := json.Unmarshal(pj.Spec, &sim)
		if err == nil {
			err = sim.Validate()
		}
		if err != nil {
			s.log.Warn("replay: settling unusable job as failed", "id", pj.ID, "err", err)
			if aerr := s.st.AppendJobFailed(pj.ID, pj.SpecHash, "replay: "+err.Error()); aerr != nil {
				return aerr
			}
			continue
		}
		tn, ok := s.tenants.ByName(pj.Tenant)
		if !ok {
			tn = s.tenants.Default()
		}
		j := s.restoreJob(pj.ID, tn.Name, sim, pj.Label, pj.TimeoutMS)

		// An equivalent spec may have finished before the crash (or in
		// another deployment sharing the warehouse): settle without
		// re-simulating — the spec hash makes re-execution idempotent,
		// and the warehouse makes it unnecessary.
		if res, ok := s.LookupResult(j.key); ok {
			if _, aerr := s.settle(j, StateDone, "", &res, true); aerr != nil {
				return aerr
			}
			continue
		}

		// Accepted work is owed: replay bypasses the tenant's queue
		// share (maxQueued 0) so a now-shrunken quota cannot shed jobs
		// the previous process already promised.
		if err := s.sched.Enqueue(tn, j, float64(sim.Workload.Insts), 0); err != nil {
			return fmt.Errorf("server: replaying job %s: %w", pj.ID, err)
		}
		s.mQueueDepth.Add(1)
		s.log.Info("replay: re-enqueued job", "id", j.id, "spec", j.key, "tenant", j.tenant)
	}
	return nil
}

// restoreJob registers a replayed job under its WAL-recorded ID.
func (s *Server) restoreJob(id, tenantName string, sim spec.Sim, label string, timeoutMS int64) *job {
	ctx, cancel := context.WithCancel(s.lifeCtx)
	s.mu.Lock()
	j := &job{
		id:        id,
		sim:       sim,
		label:     label,
		timeoutMS: timeoutMS,
		tenant:    tenantName,
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
	j.flight.note("replayed from WAL")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	return j
}
