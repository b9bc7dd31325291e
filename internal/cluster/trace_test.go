package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
)

// newProbedWorker is newWorker with a fast progress cadence and event
// sampling, so the job event streams the coordinator follows carry
// mid-run progress snapshots.
func newProbedWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Workers:          2,
		QueueDepth:       64,
		CacheSize:        256,
		DefaultInsts:     20_000,
		ProgressInterval: 2048,
		ProgressPoll:     5 * time.Millisecond,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("worker config: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts
}

// TestClusterTraceEndToEnd drives a 3-worker sweep submitted with a
// traceparent header and asserts the whole execution lands in ONE
// trace: the sweep joins the submitter's trace ID, the coordinator's
// merged /debug/traces/{id} export contains coordinator spans (sweep,
// dispatch) AND worker spans (job, baseline, run), per-point progress
// is re-exported through the sweep status mid-run, readiness flips with
// fleet state, and dispatch latency lands in the per-worker histogram.
func TestClusterTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster simulation")
	}
	coord, cts := newCoordinator(t, fastConfig())

	// No workers yet: live but not ready.
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers = %d, want 503", resp.StatusCode)
	}

	for i := 0; i < 3; i++ {
		w := newProbedWorker(t)
		if _, _, err := coord.RegisterWorker(context.Background(), w.URL); err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
	}
	resp, err = http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with active workers = %d, want 200", resp.StatusCode)
	}

	// Submit with an explicit traceparent, as an external tracing client
	// would.
	const parentTrace = "11112222333344445555666677778888"
	body, _ := json.Marshal(server.SweepRequest{
		Template: server.JobRequest{Workload: "gcc2k", Predictor: "composite", Insts: 1_500_000},
		Axes:     server.SweepAxes{Seeds: []uint64{1, 2, 3}},
	})
	req, _ := http.NewRequest(http.MethodPost, cts.URL+"/v1/sweeps", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(otrace.TraceparentHeader, "00-"+parentTrace+"-aaaabbbbccccdddd-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode sweep status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if st.TraceID != parentTrace {
		t.Fatalf("sweep TraceID = %q, want the submitted traceparent %q", st.TraceID, parentTrace)
	}

	// Follow the sweep live; the running points should re-export their
	// workers' progress snapshots at least once.
	progressSeen := false
	deadline := time.Now().Add(90 * time.Second)
	for {
		var cur SweepStatus
		getJSON(t, cts.URL+"/v1/sweeps/"+st.ID, &cur)
		for _, pt := range cur.Points {
			if pt.Progress != nil && pt.Progress.Instructions > 0 {
				progressSeen = true
			}
		}
		if cur.State == "done" {
			if cur.Done != 3 || cur.Failed != 0 {
				t.Fatalf("sweep finished done=%d failed=%d, want 3/0", cur.Done, cur.Failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not finish: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !progressSeen {
		t.Fatalf("no point ever re-exported worker progress through the sweep status")
	}

	// The merged export must hold coordinator AND worker spans of the
	// one trace.
	resp, err = http.Get(cts.URL + "/debug/traces/" + parentTrace)
	if err != nil {
		t.Fatalf("GET merged trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("merged trace = %d: %s", resp.StatusCode, b)
	}
	var chrome struct {
		TraceEvents []otrace.Event `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("merged trace is not Chrome trace-event JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			counts[ev.Name]++
		}
	}
	for _, want := range []string{"POST /v1/sweeps", "sweep", "dispatch", "job", "baseline", "run"} {
		if counts[want] == 0 {
			t.Errorf("merged trace missing %q span (have %v)", want, counts)
		}
	}
	if counts["dispatch"] < 3 || counts["job"] < 3 {
		t.Errorf("want >=3 dispatch and job spans for 3 points, have %v", counts)
	}

	// Dispatch wall time must land in the per-worker histogram.
	resp, err = http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), `lvpc_worker_dispatch_seconds_count{worker=`) {
		t.Errorf("metrics missing lvpc_worker_dispatch_seconds per-worker series")
	}
}
