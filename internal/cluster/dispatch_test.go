package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// xReader is an endless stream of 'x' bytes.
type xReader struct{}

func (xReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

func TestReadJobEvents(t *testing.T) {
	doneJSON := `{"id":"j-1","state":"done","result":{"workload":"gcc2k","instructions":20000}}`
	cases := []struct {
		name      string
		stream    io.Reader
		wantState string // "" = want a *workerError
		progress  int
	}{
		{"keepalives then done", strings.NewReader(": ping\n\n: ping\n\nevent: done\ndata: " + doneJSON + "\n\n"), server.StateDone, 0},
		{"full lifecycle", strings.NewReader(
			"event: queued\ndata: {\"id\":\"j-1\",\"state\":\"queued\"}\n\n" +
				"event: started\ndata: {\"id\":\"j-1\",\"state\":\"running\"}\n\n" +
				": ping\n\n" +
				"event: progress\ndata: {\"phase\":\"run\",\"instructions\":4096}\n\n" +
				"event: progress\ndata: {\"phase\":\"run\",\"instructions\":8192}\n\n" +
				"event: done\ndata: " + doneJSON + "\n\n"), server.StateDone, 2},
		{"failed", strings.NewReader("event: started\ndata: {}\n\nevent: failed\ndata: {\"id\":\"j-1\",\"state\":\"failed\",\"error\":\"timeout\"}\n\n"), server.StateFailed, 0},
		{"canceled", strings.NewReader("event: canceled\ndata: {\"id\":\"j-1\",\"state\":\"canceled\"}\n\n"), server.StateCanceled, 0},
		{"EOF before any event", strings.NewReader(""), "", 0},
		{"EOF before the terminal event", strings.NewReader("event: queued\ndata: {\"id\":\"j-1\",\"state\":\"queued\"}\n\n: ping\n\n"), "", 0},
		{"EOF inside the terminal event", strings.NewReader("event: done\ndata: " + doneJSON + "\n"), "", 0},
		{"undecodable terminal event", strings.NewReader("event: done\ndata: {not json\n\n"), "", 0},
		{"terminal event without data", strings.NewReader("event: progress\ndata: {\"instructions\":1}\n\nevent: done\n\n"), "", 0},
		{"undecodable progress event", strings.NewReader("event: progress\ndata: [\n\n"), "", 0},
		{"endless data line", io.MultiReader(strings.NewReader("event: progress\ndata: "), xReader{}), "", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			progress := 0
			st, err := readJobEvents(c.stream, func(p *server.ProgressView) {
				if p.Instructions == 0 {
					t.Errorf("progress event decoded without instructions")
				}
				progress++
			})
			if c.wantState == "" {
				var we *workerError
				if !errors.As(err, &we) {
					t.Fatalf("err = %v, want a *workerError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("readJobEvents: %v", err)
			}
			if st.State != c.wantState || st.ID != "j-1" {
				t.Errorf("terminal status %q (id %q), want %q (id j-1)", st.State, st.ID, c.wantState)
			}
			if c.wantState == server.StateDone && (st.Result == nil || st.Result.Instructions != 20000) {
				t.Errorf("done event result = %+v, want the carried result", st.Result)
			}
			if progress != c.progress {
				t.Errorf("%d progress events, want %d", progress, c.progress)
			}
		})
	}
}

// countingWorker is a stock lvpd worker behind a handler that counts
// the job-API requests it serves.
type countingWorker struct {
	ts *httptest.Server

	mu                    sync.Mutex
	submits, streams, get int
}

func newCountingWorker(t *testing.T) *countingWorker {
	t.Helper()
	srv, err := server.New(server.Config{
		Workers:      2,
		QueueDepth:   64,
		CacheSize:    256,
		DefaultInsts: 20_000,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatalf("worker config: %v", err)
	}
	srv.Start()
	cw := &countingWorker{}
	inner := srv.Handler()
	cw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw.mu.Lock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			cw.submits++
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && strings.HasSuffix(r.URL.Path, "/events"):
			cw.streams++
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			cw.get++
		}
		cw.mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		cw.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return cw
}

func (cw *countingWorker) counts() (submits, streams, gets int) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.submits, cw.streams, cw.get
}

// awaitSweep polls a sweep until it is done and returns its status.
func awaitSweep(t *testing.T, coord *Coordinator, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := coord.SweepStatusByID(id, true)
		if !ok {
			t.Fatalf("sweep %s unknown", id)
		}
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not finish: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDispatchFollowsEvents: every point costs its worker exactly one
// submit and one event stream, and the coordinator never polls a job.
func TestDispatchFollowsEvents(t *testing.T) {
	coord, _ := newCoordinator(t, fastConfig())
	cw := newCountingWorker(t)
	if _, _, err := coord.RegisterWorker(context.Background(), cw.ts.URL); err != nil {
		t.Fatalf("register: %v", err)
	}
	sw, err := coord.StartSweep(context.Background(), server.SweepRequest{
		Template: server.JobRequest{Workload: "gcc2k", Insts: 5_000},
		Axes:     server.SweepAxes{Predictors: []string{"lvp", "sap", "cvp", "cap", "composite"}},
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	st := awaitSweep(t, coord, sw.ID)
	if st.Done != st.Unique || st.Failed != 0 {
		t.Fatalf("sweep done=%d failed=%d of %d", st.Done, st.Failed, st.Unique)
	}
	for _, pt := range st.Points {
		if pt.Attempts != 1 {
			t.Errorf("point %s took %d attempts, want 1", pt.SpecHash, pt.Attempts)
		}
	}
	submits, streams, gets := cw.counts()
	if submits != st.Unique || streams != st.Unique || gets != 0 {
		t.Errorf("worker saw %d submits, %d event streams, %d job polls for %d points; want %d, %d, 0",
			submits, streams, gets, st.Unique, st.Unique, st.Unique)
	}
}

// newDroppingWorker is a fake lvpd that accepts every job, then closes
// the job's event stream after a keepalive and a progress event,
// before any terminal event. It returns the count of streams opened.
func newDroppingWorker(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var jobs, streams atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			json.NewEncoder(w).Encode(server.Health{Status: "ok"})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(server.JobStatus{ID: fmt.Sprintf("j-%06d", jobs.Add(1)), State: server.StateQueued})
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events"):
			streams.Add(1)
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, ": ping\n\nevent: started\ndata: {\"state\":\"running\"}\n\n")
			fmt.Fprint(w, "event: progress\ndata: {\"phase\":\"run\",\"instructions\":1}\n\n")
		case r.Method == http.MethodPut:
			w.WriteHeader(http.StatusNoContent)
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &streams
}

// TestDispatchRetriesDroppedStream: a worker whose event stream ends
// before the terminal event fails the attempt; the point retries and
// completes on another worker.
func TestDispatchRetriesDroppedStream(t *testing.T) {
	cfg := fastConfig()
	// The dropping worker answers /healthz, and a successful probe
	// resets its breaker; without probes its dropped streams open the
	// circuit after QuarantineAfter attempts.
	cfg.HealthInterval = time.Hour
	coord, _ := newCoordinator(t, cfg)
	// Registered first, the dropping worker wins the id tie-break and
	// takes the first attempt.
	bad, streams := newDroppingWorker(t)
	if _, _, err := coord.RegisterWorker(context.Background(), bad.URL); err != nil {
		t.Fatalf("register dropping worker: %v", err)
	}
	good, _ := newWorker(t)
	goodStatus, _, err := coord.RegisterWorker(context.Background(), good.URL)
	if err != nil {
		t.Fatalf("register worker: %v", err)
	}
	sw, err := coord.StartSweep(context.Background(), server.SweepRequest{
		Template: server.JobRequest{Workload: "mcf", Predictor: "composite", Insts: 5_000},
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	st := awaitSweep(t, coord, sw.ID)
	if st.Done != 1 || st.Failed != 0 {
		t.Fatalf("sweep done=%d failed=%d, want 1/0: %+v", st.Done, st.Failed, st.Points)
	}
	pt := st.Points[0]
	if pt.Attempts < 2 || pt.Worker != goodStatus.ID || pt.Result == nil {
		t.Errorf("point attempts=%d worker=%s result=%v; want >=2 attempts ending on %s with a result",
			pt.Attempts, pt.Worker, pt.Result != nil, goodStatus.ID)
	}
	if streams.Load() < 1 {
		t.Errorf("the dropping worker's event stream was never followed")
	}
	if n := coord.mRetried.Value(); n < 1 {
		t.Errorf("lvpc_points_retried_total = %d, want >= 1", n)
	}
}

// TestDispatchWakesOnRegistration: a point submitted to an empty fleet
// waits with no timer and dispatches once a worker registers.
func TestDispatchWakesOnRegistration(t *testing.T) {
	coord, _ := newCoordinator(t, fastConfig())
	sw, err := coord.StartSweep(context.Background(), server.SweepRequest{
		Template: server.JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 5_000},
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	// Give the point time to find no worker and start waiting.
	time.Sleep(50 * time.Millisecond)
	if st, _ := coord.SweepStatusByID(sw.ID, false); st.Pending != 1 || coord.mDispatched.Value() != 0 {
		t.Fatalf("before any worker: pending=%d dispatched=%d, want 1 and 0", st.Pending, coord.mDispatched.Value())
	}
	w, _ := newWorker(t)
	if _, _, err := coord.RegisterWorker(context.Background(), w.URL); err != nil {
		t.Fatalf("register: %v", err)
	}
	st := awaitSweep(t, coord, sw.ID)
	if st.Done != 1 {
		t.Fatalf("sweep done=%d failed=%d after registration, want 1 done", st.Done, st.Failed)
	}
}
