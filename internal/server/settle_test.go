package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSettleOrder pins the settle order: at the instant a job's done
// channel closes, whatever a client reads next is already in place.
// A simulated done job has its warehouse row, a failed or canceled job
// has its durable flight record carrying the terminal state, and every
// job is counted in lvpd_jobs_total{state} and, having run, in
// lvpd_job_duration_seconds.
func TestSettleOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInsts: -1, DataDir: t.TempDir()})
	jobOf := func(id string) *job {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[id]
		if j == nil {
			t.Fatalf("no job %s", id)
		}
		return j
	}
	// settled waits for j.done and reads everything at once, before
	// checking any of it.
	type view struct {
		row                    bool
		flightState, flightErr string
		flightEvent            bool
		durations              uint64
		done, failed, canceled uint64
	}
	settled := func(j *job) view {
		<-j.done
		var v view
		_, v.row = s.st.Warehouse().Get(j.key)
		if rec, ok := s.st.Flights().Get(j.id); ok {
			v.flightState, v.flightErr = rec.State, rec.Error
			for _, ev := range rec.Events {
				if strings.HasPrefix(ev.Msg, "state: "+rec.State) {
					v.flightEvent = true
				}
			}
		}
		v.durations = s.mJobDur.Count()
		v.done, v.failed, v.canceled = s.mDone.Value(), s.mFailed.Value(), s.mCanceled.Value()
		return v
	}

	_, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 200_000})
	if v := settled(jobOf(st.ID)); !v.row || v.durations != 1 || v.done != 1 {
		t.Errorf("done job at settle: row=%v durations=%d done=%d, want row, 1 and 1", v.row, v.durations, v.done)
	}

	_, st = submit(t, ts, JobRequest{Workload: "mcf", Predictor: "composite", Insts: 50_000_000, TimeoutMS: 1})
	v := settled(jobOf(st.ID))
	if v.flightState != StateFailed || v.flightErr != "job deadline exceeded" || !v.flightEvent {
		t.Errorf("failed job's flight record at settle: state=%q err=%q event=%v", v.flightState, v.flightErr, v.flightEvent)
	}
	if v.durations != 2 || v.failed != 1 {
		t.Errorf("failed job at settle: durations=%d failed=%d, want 2 and 1", v.durations, v.failed)
	}

	_, st = submit(t, ts, JobRequest{Workload: "mcf", Predictor: "composite", Insts: 50_000_000})
	j := jobOf(st.ID)
	waitState(t, ts, st.ID, 30*time.Second, StateRunning)
	deleted := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			deleted <- 0
			return
		}
		resp.Body.Close()
		deleted <- resp.StatusCode
	}()
	v = settled(j)
	if v.flightState != StateCanceled || v.flightErr != "canceled by client" || !v.flightEvent {
		t.Errorf("canceled job's flight record at settle: state=%q err=%q event=%v", v.flightState, v.flightErr, v.flightEvent)
	}
	if v.durations != 3 || v.canceled != 1 {
		t.Errorf("canceled job at settle: durations=%d canceled=%d, want 3 and 1", v.durations, v.canceled)
	}
	if code := <-deleted; code != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", code)
	}
}
