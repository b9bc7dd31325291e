package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// sseEventName maps a job state to the SSE event name announcing it:
// the entry state keeps its own name, running becomes "started", and
// terminal states keep theirs ("done"/"failed"/"canceled").
func sseEventName(state string) string {
	if state == StateRunning {
		return "started"
	}
	return state
}

// TerminalState reports whether a job state is final. The event stream
// names its terminal events after these states.
func TerminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// handleJobEvents implements GET /v1/jobs/{id}/events: a Server-Sent
// Events stream of the job's lifecycle. The stream opens with the
// job's current state, announces state changes ("started", then one of
// "done"/"failed"/"canceled" carrying the full JobStatus including the
// result), and emits "progress" events with the live ProgressView
// whenever a poll of the job's progress slot observes new
// instructions. The stream closes after the terminal event or when the
// client disconnects. Polling (at Config.ProgressPoll) rather than
// pushing keeps the simulation hot path free of per-event work: the
// pipeline only ever writes its fixed-size seqlock slot.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	send := func(event string, v any) {
		fmt.Fprintf(w, "event: %s\ndata: ", event)
		json.NewEncoder(w).Encode(v) // Encode terminates the data line
		fmt.Fprint(w, "\n")
		fl.Flush()
	}

	st := j.status()
	send(sseEventName(st.State), st)
	if TerminalState(st.State) {
		return
	}
	lastState := st.State
	var lastPhase string
	var lastInsts uint64

	tick := time.NewTicker(s.cfg.ProgressPoll)
	defer tick.Stop()
	// Keepalive comment frames hold idle proxies open while a slow job
	// produces no progress events; a client gone before the terminal
	// event is a dropped stream, counted and noted in the job's black
	// box (a consumer losing its observer matters in a post-mortem).
	keep := time.NewTicker(s.cfg.SSEKeepalive)
	defer keep.Stop()
	for {
		select {
		case <-r.Context().Done():
			s.mSSEDropped.Inc()
			j.flight.note("event stream dropped before terminal state")
			return
		case <-keep.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case <-j.done:
			send(sseEventName(j.status().State), j.status())
			return
		case <-tick.C:
			st := j.status()
			if TerminalState(st.State) {
				// j.done closes after the state settles; let that arm
				// emit the terminal event exactly once.
				continue
			}
			if st.State != lastState {
				lastState = st.State
				send(sseEventName(st.State), st)
			}
			if p := st.Progress; p != nil && (p.Phase != lastPhase || p.Instructions != lastInsts) {
				lastPhase, lastInsts = p.Phase, p.Instructions
				send("progress", p)
			}
		}
	}
}
