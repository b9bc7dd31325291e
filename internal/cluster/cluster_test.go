package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newWorker starts a stock lvpd worker over httptest and returns its
// base URL plus the underlying server (so tests can kill the HTTP
// front-end while cleanly draining the job engine afterwards).
func newWorker(t *testing.T) (*httptest.Server, *server.Server) {
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
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts, srv
}

// fastConfig returns coordinator knobs scaled for tests: millisecond
// probe periods and backoffs, and a sub-second quarantine cycle.
func fastConfig() Config {
	return Config{
		DefaultInsts:   20_000,
		WorkerSlots:    2,
		PointDeadline:  30 * time.Second,
		PointRetries:   8,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		HealthInterval: 15 * time.Millisecond,
		// Generous probe timeout: on a starved single-CPU runner a busy
		// worker can take hundreds of ms to answer /healthz, and a too-
		// tight bound quarantines healthy workers into a steal storm.
		// Dead-worker tests are unaffected (connection refused is
		// immediate regardless of timeout).
		HealthTimeout:      2 * time.Second,
		QuarantineAfter:    2,
		QuarantineCooldown: 200 * time.Millisecond,
		Logger:             quietLogger(),
	}
}

func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("coordinator config: %v", err)
	}
	coord.Start()
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	return coord, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// metricValue sums the samples of one metric family in Prometheus text
// exposition, labeled series included.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// stripNondeterminism zeroes the two RunResult fields that depend on
// wall-clock scheduling (simulated-instruction accounting shifts with
// baseline cache warm-up order; MIPS is a timing measurement). Every
// other field is a pure function of the canonical spec.
func stripNondeterminism(r server.RunResult) server.RunResult {
	r.SimInstructions = 0
	r.SimMIPS = 0
	return r
}

// sweep64 is the integration sweep: 4 workloads x 4 predictors x
// 2 table sizes x 2 seeds = 64 unique points.
func sweep64() server.SweepRequest {
	return server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k", "mcf", "sjeng", "povray"},
			Predictors: []string{"lvp", "sap", "cvp", "composite"},
			EntriesPer: []int{256, 512},
			Seeds:      []uint64{1, 2},
		},
	}
}

// TestClusterSweepFaultTolerance is the end-to-end acceptance test:
// a coordinator with three workers runs a 64-point sweep, one worker
// is killed mid-sweep, and the sweep must still complete with every
// point's result bit-identical to single-node execution, with the
// retries and the quarantine visible in the metrics.
func TestClusterSweepFaultTolerance(t *testing.T) {
	workers := make([]*httptest.Server, 3)
	for i := range workers {
		workers[i], _ = newWorker(t)
	}
	_, coordTS := newCoordinator(t, fastConfig())

	for _, w := range workers {
		resp, body := postJSON(t, coordTS.URL+"/v1/cluster/workers", map[string]string{"url": w.URL})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register: %d: %s", resp.StatusCode, body)
		}
	}

	resp, body := postJSON(t, coordTS.URL+"/v1/sweeps", sweep64())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d: %s", resp.StatusCode, body)
	}
	var submitted SweepStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatalf("sweep submit decode: %v", err)
	}
	if submitted.Total != 64 || submitted.Unique != 64 {
		t.Fatalf("expected 64 unique points, got total=%d unique=%d", submitted.Total, submitted.Unique)
	}

	sweepURL := coordTS.URL + "/v1/sweeps/" + submitted.ID

	// Let the sweep make real progress, then kill one worker hard:
	// open connections die mid-poll and the port stops answering.
	victim := workers[1]
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st SweepStatus
		getJSON(t, sweepURL, &st)
		if st.Done >= 10 {
			break
		}
		if st.State == "done" {
			t.Fatalf("sweep finished before the fault was injected (done=%d failed=%d)", st.Done, st.Failed)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep made no progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.CloseClientConnections()
	victim.Close()

	var final SweepStatus
	for {
		getJSON(t, sweepURL, &final)
		if final.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not finish after worker death: %+v", final)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.Done != 64 || final.Failed != 0 {
		t.Fatalf("sweep should survive a worker death: done=%d failed=%d", final.Done, final.Failed)
	}

	// The fault must be visible in the coordinator's metrics...
	mresp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	if q := metricValue(t, metrics, "lvpc_workers_quarantined_total"); q < 1 {
		t.Errorf("expected at least one quarantine, got %v", q)
	}
	retried := metricValue(t, metrics, "lvpc_points_retried_total")
	stolen := metricValue(t, metrics, "lvpc_points_stolen_total")
	if retried+stolen < 1 {
		t.Errorf("expected retries or steals after worker death, got retried=%v stolen=%v", retried, stolen)
	}

	// ...and in the worker registry.
	var wl struct {
		Workers []WorkerStatus `json:"workers"`
	}
	getJSON(t, coordTS.URL+"/v1/cluster/workers", &wl)
	var victimState string
	for _, w := range wl.Workers {
		if w.URL == victim.URL {
			victimState = w.State
		}
	}
	if victimState != WorkerQuarantined {
		t.Errorf("dead worker should be quarantined, got %q", victimState)
	}

	// Every point's result must be bit-identical to single-node
	// execution of the same sweep, keyed by spec hash.
	single := singleNodeResults(t, sweep64())
	for _, pt := range final.Points {
		if pt.State != PointDone || pt.Result == nil {
			t.Fatalf("point %s not done: state=%s err=%s", pt.SpecHash, pt.State, pt.Error)
		}
		want, ok := single[pt.SpecHash]
		if !ok {
			t.Fatalf("single-node run has no result for %s", pt.SpecHash)
		}
		got := stripNondeterminism(*pt.Result)
		if !reflect.DeepEqual(got, stripNondeterminism(want)) {
			t.Errorf("point %s diverged from single-node execution:\n cluster: %+v\n single:  %+v",
				pt.SpecHash, got, want)
		}
	}
}

// singleNodeResults runs the sweep on one fresh lvpd and returns every
// point's result keyed by spec hash.
func singleNodeResults(t *testing.T, req server.SweepRequest) map[string]server.RunResult {
	t.Helper()
	srv, err := server.New(server.Config{
		Workers:      4,
		QueueDepth:   128,
		CacheSize:    256,
		DefaultInsts: 20_000,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatalf("single-node config: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	resp, body := postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single-node sweep: %d: %s", resp.StatusCode, body)
	}
	var sr server.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("single-node sweep decode: %v", err)
	}
	if sr.Rejected != 0 {
		t.Fatalf("single-node sweep shed %d points; raise the queue depth", sr.Rejected)
	}

	results := make(map[string]server.RunResult, len(sr.Jobs))
	deadline := time.Now().Add(120 * time.Second)
	for _, job := range sr.Jobs {
		for {
			var st server.JobStatus
			getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &st)
			if st.State == server.StateDone {
				results[st.SpecHash] = *st.Result
				break
			}
			if st.State == server.StateFailed || st.State == server.StateCanceled {
				t.Fatalf("single-node job %s %s: %s", st.ID, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("single-node job %s stuck in %s", st.ID, st.State)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}
	return results
}

func TestSweepDedupAndCacheReuse(t *testing.T) {
	workerTS, _ := newWorker(t)
	coord, coordTS := newCoordinator(t, fastConfig())
	if _, _, err := coord.RegisterWorker(context.Background(), workerTS.URL); err != nil {
		t.Fatalf("register: %v", err)
	}

	req := server.SweepRequest{
		Template: server.JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 20_000},
		Axes:     server.SweepAxes{Seeds: []uint64{7, 7}}, // same hash twice
	}
	st, err := coord.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	if st.Total != 2 || st.Unique != 1 || st.Deduped != 1 {
		t.Fatalf("duplicate points should collapse: %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		got, ok := coord.SweepStatusByID(st.ID, false)
		if !ok {
			t.Fatalf("sweep %s vanished", st.ID)
		}
		if got.State == "done" {
			if got.Done != 1 || got.Failed != 0 {
				t.Fatalf("sweep failed: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Resubmitting the same sweep is answered from the shared cache
	// without dispatching: HTTP 200 (not 202), already done.
	resp, body := postJSON(t, coordTS.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit should return 200, got %d: %s", resp.StatusCode, body)
	}
	var again SweepStatus
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again.State != "done" || again.Cached != 1 {
		t.Fatalf("resubmit should be fully cached: %+v", again)
	}
}

func TestRegisterWorkerValidationAndReactivation(t *testing.T) {
	workerTS, _ := newWorker(t)
	coord, coordTS := newCoordinator(t, fastConfig())
	ctx := context.Background()

	for _, bad := range []string{"", "not a url", "ftp://example.com", "/relative"} {
		if _, _, err := coord.RegisterWorker(ctx, bad); err == nil {
			t.Errorf("RegisterWorker(%q) should fail", bad)
		}
	}
	// A dialable-looking URL that answers nothing fails its probe.
	if _, _, err := coord.RegisterWorker(ctx, "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable worker should fail its registration probe")
	}

	st, created, err := coord.RegisterWorker(ctx, workerTS.URL)
	if err != nil || !created || st.State != WorkerActive {
		t.Fatalf("first registration: st=%+v created=%v err=%v", st, created, err)
	}

	// Draining parks the worker; re-registering the same URL
	// reactivates the same entry instead of minting a new id.
	drained, ok := coord.DrainWorker(st.ID)
	if !ok || drained.State != WorkerDrained {
		t.Fatalf("drain: st=%+v ok=%v", drained, ok)
	}
	re, created, err := coord.RegisterWorker(ctx, workerTS.URL)
	if err != nil || created || re.ID != st.ID || re.State != WorkerActive {
		t.Fatalf("reactivation: st=%+v created=%v err=%v", re, created, err)
	}

	// The HTTP surface maps the same failures: bad body 400,
	// unreachable worker 502, unknown drain target 404.
	resp, _ := postJSON(t, coordTS.URL+"/v1/cluster/workers", map[string]string{"url": "ftp://nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scheme should 400, got %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, coordTS.URL+"/v1/cluster/workers", map[string]string{"url": "http://127.0.0.1:1"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable worker should 502, got %d", resp.StatusCode)
	}
	dreq, _ := http.NewRequest(http.MethodDelete, coordTS.URL+"/v1/cluster/workers/w-999", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatalf("drain request: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown worker drain should 404, got %d", dresp.StatusCode)
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	for fails := 1; fails <= 40; fails++ {
		for i := 0; i < 20; i++ {
			d := backoffDelay(base, max, fails)
			if d <= 0 {
				t.Fatalf("fails=%d: nonpositive delay %v", fails, d)
			}
			if d > time.Duration(1.5*float64(max)) {
				t.Fatalf("fails=%d: delay %v above jittered cap", fails, d)
			}
		}
	}
	// First retry jitters around the base: 50-150%.
	for i := 0; i < 50; i++ {
		d := backoffDelay(base, max, 1)
		if d < base/2 || d > 3*base/2 {
			t.Fatalf("first retry delay %v outside 50-150%% of base", d)
		}
	}
}

func TestClusterConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero is valid", Config{}, true},
		{"negative sweep cap", Config{MaxSweepPoints: -1}, false},
		{"sweep cap over ceiling", Config{MaxSweepPoints: 1 << 21}, false},
		{"negative retries", Config{PointRetries: -1}, false},
		{"negative quarantine threshold", Config{QuarantineAfter: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected an error")
			}
		})
	}
	if _, err := New(Config{MaxSweepPoints: -5}); err == nil {
		t.Fatal("New should reject what Validate rejects")
	}
}

func TestSweepRejectedWhenOverCap(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxSweepPoints = 4
	_, coordTS := newCoordinator(t, cfg)
	resp, body := postJSON(t, coordTS.URL+"/v1/sweeps", sweep64())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize sweep should 400, got %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "max 4") {
		t.Fatalf("error should name the cap: %s", body)
	}
}

func TestHealthzFleetRollup(t *testing.T) {
	workerTS, _ := newWorker(t)
	coord, coordTS := newCoordinator(t, fastConfig())
	if _, _, err := coord.RegisterWorker(context.Background(), workerTS.URL); err != nil {
		t.Fatalf("register: %v", err)
	}
	var h ClusterHealth
	getJSON(t, coordTS.URL+"/healthz", &h)
	if h.Status != "ok" || h.Workers != 1 || h.ActiveWorkers != 1 {
		t.Fatalf("unexpected healthz: %+v", h)
	}
}

func TestDrainStealsInflightPoints(t *testing.T) {
	// Two workers; drain one while a sweep is in flight. The sweep
	// must still complete, with any stolen points re-dispatched to the
	// survivor.
	w0, _ := newWorker(t)
	w1, _ := newWorker(t)
	coord, _ := newCoordinator(t, fastConfig())
	ctx := context.Background()
	if _, _, err := coord.RegisterWorker(ctx, w0.URL); err != nil {
		t.Fatalf("register w0: %v", err)
	}
	st1, _, err := coord.RegisterWorker(ctx, w1.URL)
	if err != nil {
		t.Fatalf("register w1: %v", err)
	}

	st, err := coord.StartSweep(context.Background(), server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k", "mcf", "sjeng", "povray"},
			Predictors: []string{"lvp", "cvp"},
			Seeds:      []uint64{11, 12},
		},
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	if _, ok := coord.DrainWorker(st1.ID); !ok {
		t.Fatalf("drain %s failed", st1.ID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		got, ok := coord.SweepStatusByID(st.ID, false)
		if !ok {
			t.Fatalf("sweep %s vanished", st.ID)
		}
		if got.State == "done" {
			if got.Failed != 0 || got.Done != got.Unique {
				t.Fatalf("sweep should survive a drain: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck after drain: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, w := range coord.Workers() {
		if w.ID == st1.ID {
			if w.State != WorkerDrained {
				t.Fatalf("drained worker flipped to %q", w.State)
			}
			if w.Inflight != 0 {
				t.Fatalf("drained worker still holds %d in-flight points", w.Inflight)
			}
		}
	}
}
