package server

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/store"
)

// Flight ring capacities: enough history to reconstruct the last
// minutes of a job's life without letting a long job grow its black
// box without bound.
const (
	flightEventCap = 64
	flightSnapCap  = 32
)

// flightRing is a job's in-memory black box: a bounded ring of
// lifecycle events and a bounded ring of progress snapshots. Events
// come from state/phase transitions and the SSE stream; snapshots are
// taken by the observability collector on its scrape tick. Cheap
// enough to keep on every job — writes happen at transition/scrape
// cadence, never on the simulation hot path.
type flightRing struct {
	mu     sync.Mutex
	events []store.FlightEvent
	evHead int
	snaps  []store.FlightSnapshot
	snHead int
}

// note appends one timestamped event, overwriting the oldest past cap.
func (f *flightRing) note(msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ev := store.FlightEvent{Time: time.Now().UTC(), Msg: msg}
	if len(f.events) < flightEventCap {
		f.events = append(f.events, ev)
		return
	}
	f.events[f.evHead] = ev
	f.evHead = (f.evHead + 1) % flightEventCap
}

// sample appends one progress snapshot, overwriting the oldest past cap.
func (f *flightRing) sample(snap store.FlightSnapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.snaps) < flightSnapCap {
		f.snaps = append(f.snaps, snap)
		return
	}
	f.snaps[f.snHead] = snap
	f.snHead = (f.snHead + 1) % flightSnapCap
}

// eventsCopy returns the ring's events oldest first.
func (f *flightRing) eventsCopy() []store.FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]store.FlightEvent, 0, len(f.events))
	out = append(out, f.events[f.evHead:]...)
	out = append(out, f.events[:f.evHead]...)
	return out
}

// snapsCopy returns the ring's snapshots oldest first.
func (f *flightRing) snapsCopy() []store.FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]store.FlightSnapshot, 0, len(f.snaps))
	out = append(out, f.snaps[f.snHead:]...)
	out = append(out, f.snaps[:f.snHead]...)
	return out
}

// flightRecord assembles the job's black box for dumping or serving.
// trigger records why the dump happened ("" = live view).
func (j *job) flightRecord(trigger string) store.FlightRecord {
	j.mu.Lock()
	rec := store.FlightRecord{
		JobID:     j.id,
		SpecHash:  j.key,
		Tenant:    j.tenant,
		Workload:  j.sim.Workload.Name,
		Predictor: j.label,
		State:     j.state,
		Error:     j.errMsg,
		TraceID:   j.traceID,
		Trigger:   trigger,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
	j.mu.Unlock()
	rec.Events = j.flight.eventsCopy()
	rec.Snapshots = j.flight.snapsCopy()
	return rec
}

// sampleFlight records one progress snapshot into the job's black box,
// read from the same seqlock slot GET /v1/jobs/{id} uses. No-op unless
// the job is running with live progress.
func (j *job) sampleFlight(now time.Time) {
	st := j.status()
	if st.State != StateRunning || st.Progress == nil {
		return
	}
	p := st.Progress
	snap := store.FlightSnapshot{
		Time:         now.UTC(),
		Phase:        p.Phase,
		Instructions: p.Instructions,
		Cycles:       p.Cycles,
		SimMIPS:      p.SimMIPS,
	}
	for _, c := range p.Components {
		snap.Components = append(snap.Components, store.FlightComponent{
			Name:      c.Name,
			Used:      c.Used,
			Correct:   c.Correct,
			Incorrect: c.Incorrect,
			MPKP:      c.MPKP,
			Silenced:  c.Silenced,
		})
	}
	j.flight.sample(snap)
}

// dumpFlight persists the job's black box to the durable flight store.
// Best-effort: a dump failure is logged, never fatal — the job already
// settled, and the live ring still serves until the process exits.
func (s *Server) dumpFlight(j *job, trigger string) {
	if s.st == nil || s.crashed.Load() {
		return
	}
	if err := s.st.Flights().Put(j.flightRecord(trigger)); err != nil {
		s.log.Error("flight record dump failed", "id", j.id, "err", err)
	}
}

// sampleFlights snapshots every running job's progress into its flight
// ring — the collector's OnScrape hook.
func (s *Server) sampleFlights(now time.Time) {
	for _, j := range s.runningJobs() {
		j.sampleFlight(now)
	}
}

// runningJobs snapshots the currently running jobs.
func (s *Server) runningJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		running := j.state == StateRunning
		j.mu.Unlock()
		if running {
			out = append(out, j)
		}
	}
	return out
}

// handleFlightRecord implements GET /v1/jobs/{id}/flightrecord: a
// running job answers with its live black box; a settled or forgotten
// job answers from the durable flight store (which survives restarts
// via its own log). Jobs that finished cleanly and were never dumped
// still answer with their live ring while retained in memory.
func (s *Server) handleFlightRecord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		if !TerminalState(j.status().State) {
			writeJSON(w, http.StatusOK, j.flightRecord(""))
			return
		}
	}
	if s.st != nil {
		if rec, ok := s.st.Flights().Get(id); ok {
			writeJSON(w, http.StatusOK, rec)
			return
		}
	}
	if j != nil {
		writeJSON(w, http.StatusOK, j.flightRecord(""))
		return
	}
	writeError(w, http.StatusNotFound, "no flight record for job")
}
