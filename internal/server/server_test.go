package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if cfg.DefaultInsts == 0 {
		cfg.DefaultInsts = 20_000
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp, st
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls the job until it reaches a terminal state or one of
// the wanted states, failing the test on timeout.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getJob(t, ts, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("job %s reached terminal state %q (err=%q), wanted one of %v", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q after %v, wanted one of %v", id, st.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "composite", Insts: 20_000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh job state = %q, want queued", st.State)
	}
	final := waitState(t, ts, st.ID, 30*time.Second, StateDone)
	r := final.Result
	if r == nil {
		t.Fatal("done job has no result")
	}
	if r.Workload != "gcc2k" || r.Predictor != "composite" {
		t.Errorf("result identifies %s/%s, want gcc2k/composite", r.Workload, r.Predictor)
	}
	if r.Instructions != 20_000 || r.IPC <= 0 || r.BaselineIPC <= 0 {
		t.Errorf("implausible result: %+v", r)
	}
	if len(r.Components) == 0 {
		t.Error("composite result missing per-component breakdown")
	}
	// First job for this (insts, seed) context: it simulated both the
	// baseline and the configured run.
	if r.SimInstructions != 40_000 {
		t.Errorf("SimInstructions = %d, want 40000 (baseline + run)", r.SimInstructions)
	}
	if r.SimMIPS <= 0 {
		t.Errorf("SimMIPS = %g, want > 0", r.SimMIPS)
	}
	if final.Started == nil || final.Finished == nil {
		t.Error("done job missing started/finished timestamps")
	}
}

// TestBaselineMemoSpansAndCounts pins what lvpbench reads off a job:
// its "baseline" span says whether the baseline was memoized when the
// job asked for it, and sim_instructions and
// lvpd_sim_instructions_total count a baseline only when it was not.
// The second job shares the first one's workload and machine, so its
// baseline comes from the memo.
func TestBaselineMemoSpansAndCounts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for i, tc := range []struct {
		predictor string
		cached    string
		simInsts  uint64
	}{
		{"composite", "false", 40_000},
		{"lvp", "true", 20_000},
	} {
		_, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: tc.predictor, Insts: 20_000})
		final := waitState(t, ts, st.ID, 30*time.Second, StateDone)
		if got := final.Result.SimInstructions; got != tc.simInsts {
			t.Errorf("job %d: SimInstructions = %d, want %d", i, got, tc.simInsts)
		}
		var cached []string
		for _, sp := range s.tracer.TraceSpans(final.TraceID) {
			for _, a := range sp.Attrs {
				if sp.Name == "baseline" && a.Key == "cached" {
					cached = append(cached, a.Value)
				}
			}
		}
		if len(cached) != 1 || cached[0] != tc.cached {
			t.Errorf("job %d: baseline span cached = %v, want [%s]", i, cached, tc.cached)
		}
	}
	if !strings.Contains(metricsText(t, ts), "lvpd_sim_instructions_total 60000") {
		t.Error("/metrics missing lvpd_sim_instructions_total 60000")
	}
}

func TestRepeatRequestServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := JobRequest{Workload: "mcf", Predictor: "lvp", Entries: 512, Insts: 20_000}
	_, st1 := submit(t, ts, req)
	first := waitState(t, ts, st1.ID, 30*time.Second, StateDone)

	resp, st2 := submit(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d, want 200", resp.StatusCode)
	}
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("cached submit state=%q cacheHit=%v, want done/true", st2.State, st2.CacheHit)
	}
	if !reflect.DeepEqual(st2.Result, first.Result) {
		t.Errorf("cached result differs from original:\n%+v\n%+v", st2.Result, first.Result)
	}
	if got := s.mCacheHits.Value(); got != 1 {
		t.Errorf("cache hit counter = %d, want 1", got)
	}
	// The second request must not have simulated: exactly one job's
	// worth of cache misses.
	if got := s.mCacheMiss.Value(); got != 1 {
		t.Errorf("cache miss counter = %d, want 1", got)
	}
	if !strings.Contains(metricsText(t, ts), "lvpd_cache_hits_total 1") {
		t.Error("/metrics missing lvpd_cache_hits_total 1")
	}
}

// TestBackpressure floods a 1-worker, depth-2 server: the long job
// occupies the worker, two more fill the queue, and further distinct
// submissions must be rejected with 429 + Retry-After while accepted
// jobs still complete correctly.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxInsts: -1})

	// Occupy the worker with a job far too long to finish during the
	// test; it is cancelled at the end.
	_, blocker := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "none", Insts: 500_000_000})
	waitState(t, ts, blocker.ID, 10*time.Second, StateRunning)

	workloads := []string{"mcf", "xalancbmk", "sjeng", "povray", "soplex", "wrf"}
	type outcome struct {
		code  int
		retry string
		id    string
	}
	results := make([]outcome, len(workloads))
	var wg sync.WaitGroup
	for i, w := range workloads {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			resp, st := submit(t, ts, JobRequest{Workload: w, Predictor: "lvp", Insts: 20_000})
			results[i] = outcome{code: resp.StatusCode, retry: resp.Header.Get("Retry-After"), id: st.ID}
		}(i, w)
	}
	wg.Wait()

	var accepted, rejected int
	for _, r := range results {
		switch r.code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
			if n, err := strconv.Atoi(r.retry); err != nil || n < 1 || n > 60 {
				t.Errorf("429 Retry-After = %q, want an integer in [1, 60]", r.retry)
			}
		default:
			t.Errorf("unexpected submit status %d", r.code)
		}
	}
	if accepted != 2 || rejected != len(workloads)-2 {
		t.Fatalf("accepted=%d rejected=%d, want 2/%d (queue depth 2, worker busy)",
			accepted, rejected, len(workloads)-2)
	}

	// Release the worker; accepted jobs must complete with results.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if _, err := ts.Client().Do(delReq); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.code != http.StatusAccepted {
			continue
		}
		st := waitState(t, ts, r.id, 30*time.Second, StateDone)
		if st.Result == nil || st.Result.Instructions != 20_000 {
			t.Errorf("accepted job %s finished without a plausible result: %+v", r.id, st.Result)
		}
	}
}

// TestCancelMidSimulation verifies DELETE stops a running job promptly
// and that the simulation goroutine does not leak.
func TestCancelMidSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: -1})

	// Warm up a keep-alive connection so its goroutines are part of the
	// baseline, not mistaken for a leak.
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	before := runtime.NumGoroutine()

	_, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "composite", Insts: 500_000_000})
	waitState(t, ts, st.ID, 10*time.Second, StateRunning)

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	start := time.Now()
	resp, err := ts.Client().Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitState(t, ts, st.ID, 10*time.Second, StateCanceled)
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("cancellation took %v", el)
	}
	if final.Result != nil {
		t.Error("cancelled job has a result")
	}

	// The worker returns to its queue loop; total goroutines settle
	// back to the pre-submit level (idle HTTP connections are closed
	// before comparing).
	deadline := time.Now().Add(10 * time.Second)
	for {
		ts.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: -1})
	_, st := submit(t, ts, JobRequest{
		Workload: "gcc2k", Predictor: "none", Insts: 500_000_000, TimeoutMS: 200,
	})
	final := waitState(t, ts, st.ID, 20*time.Second, StateFailed)
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("timeout error = %q, want mention of deadline", final.Error)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name    string
		body    string
		want    int
		mention string // a substring of the error body, if any
	}{
		{"unknown workload", `{"workload":"nope","predictor":"lvp"}`, 400, ""},
		{"unknown predictor", `{"workload":"gcc2k","predictor":"nope"}`, 400, ""},
		{"malformed json", `{"workload":`, 400, ""},
		{"unknown field", `{"workload":"gcc2k","bogus":1}`, 400, ""},
		// Sizes past their bounds: each once validated and then
		// overflowed, spun or allocated without limit in a worker.
		{"l1d_kb shifting to zero bytes", `{"workload":"gcc2k","machine":{"l1d_kb":18014398509481984}}`, 400, "l1d_kb"},
		{"rob and mem_latency at 2^31", `{"workload":"gcc2k","machine":{"rob":2147483648,"mem_latency":2147483648}}`, 400, "rob"},
		{"rob at 2^20", `{"workload":"gcc2k","machine":{"rob":1048576}}`, 400, "rob"},
		{"entries_per at 2^40", `{"spec":{"workload":{"name":"gcc2k"},"predictor":{"entries_per":1099511627776}}}`, 400, "entries"},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want || !strings.Contains(string(raw), c.mention) {
			t.Errorf("%s: status = %d, body %s, want %d naming %q", c.name, resp.StatusCode, raw, c.want, c.mention)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job GET status = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 20_000})
	waitState(t, ts, st.ID, 30*time.Second, StateDone)

	out := metricsText(t, ts)
	for _, want := range []string{
		"# TYPE lvpd_jobs_total counter",
		`lvpd_jobs_total{state="done"} 1`,
		"# TYPE lvpd_queue_depth gauge",
		"lvpd_queue_depth 0",
		"# TYPE lvpd_job_duration_seconds histogram",
		"lvpd_job_duration_seconds_bucket",
		"lvpd_job_duration_seconds_count 1",
		"lvpd_cache_misses_total 1",
		"lvpd_sim_instructions_total 40000", // baseline + lvp run, 20k each
		"lvpd_http_requests_total",
		"# TYPE lvpd_sim_mips gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The derived throughput gauge must be positive once a job has run.
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "lvpd_sim_mips "); ok {
			var mips float64
			if _, err := fmt.Sscanf(v, "%g", &mips); err != nil || mips <= 0 {
				t.Errorf("lvpd_sim_mips = %q, want a positive value", v)
			}
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("health status = %v", health["status"])
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Workloads []string `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Workloads) < 50 {
		t.Errorf("workload list suspiciously short: %d", len(body.Workloads))
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	cfg := Config{Workers: 1, DefaultInsts: 20_000}
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "lvp"})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown failed: %v", err)
	}
	// The queued job was drained, not dropped.
	final := getJob(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state after drain = %q, want done", final.State)
	}
	// New submissions are refused.
	resp, _ := submit(t, ts, JobRequest{Workload: "mcf", Predictor: "lvp"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status = %d, want 503", resp.StatusCode)
	}
}

// TestCacheKeyCanonicalization proves the cache identity is the spec's
// canonical hash: flat defaults written out, the equivalent explicit
// spec, and the bare request all resolve to one key, while a real
// difference changes it.
func TestCacheKeyCanonicalization(t *testing.T) {
	d := spec.Defaults{Insts: 200_000, Seed: 0xC0FFEE}
	resolve := func(r JobRequest) string {
		t.Helper()
		sim, err := r.ResolveSpec(d)
		if err != nil {
			t.Fatalf("ResolveSpec: %v", err)
		}
		return sim.CanonicalHash()
	}
	a := resolve(JobRequest{Workload: "gcc2k"})
	b := resolve(JobRequest{Workload: "gcc2k", Predictor: "composite", Entries: 1024, AM: "pc", Insts: 200_000, Seed: 0xC0FFEE, TimeoutMS: 5000})
	if a != b {
		t.Error("equivalent flat requests hash differently")
	}
	c := resolve(JobRequest{Spec: &spec.Sim{
		Workload:  spec.WorkloadSpec{Name: "gcc2k"},
		Predictor: spec.PredictorSpec{Family: spec.FamilyComposite, EntriesPer: 1024, AM: spec.AMPC},
	}})
	if c != a {
		t.Error("explicit spec hashes differently from the equivalent flat request")
	}
	if resolve(JobRequest{Workload: "gcc2k", Entries: 2048}) == b {
		t.Error("different entries hash identically")
	}
	if resolve(JobRequest{Workload: "gcc2k", Machine: &spec.MachineSpec{ROB: 512}}) == a {
		t.Error("different machine hashes identically")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", RunResult{Workload: "a"})
	c.Put("b", RunResult{Workload: "b"})
	c.Get("a") // refresh a
	c.Put("c", RunResult{Workload: "c"})
	if _, ok := c.Get("b"); ok {
		t.Error("LRU kept the least recently used entry")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("LRU evicted the recently used entry")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("LRU lost the newest entry")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestRetryAfterEstimate pins the backpressure hint formula: backlog ÷
// recent drain rate, clamped to [1, 60], falling back to 1 second when
// nothing has completed yet.
func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		name    string
		depth   int
		workers int
		ewma    float64
		want    int
	}{
		{"no history yet", 10, 4, 0, 1},
		{"fast jobs round up to 1s", 3, 4, 0.01, 1},
		{"backlog divided across workers", 7, 4, 2.0, 4}, // (7+1)*2/4
		{"single worker", 3, 1, 1.5, 6},                  // (3+1)*1.5
		{"clamped at 60", 100, 1, 30, 60},
		{"zero workers treated as one", 1, 0, 2.0, 4},
		{"negative depth falls back", -1, 4, 2.0, 1},
	}
	for _, c := range cases {
		if got := retryAfterEstimate(c.depth, c.workers, c.ewma); got != c.want {
			t.Errorf("%s: retryAfterEstimate(%d, %d, %g) = %d, want %d",
				c.name, c.depth, c.workers, c.ewma, got, c.want)
		}
	}
}

// TestRetryAfterTracksBacklog proves the 429 hint is derived, not
// hardcoded: after slow jobs raise the duration EWMA, a saturated
// queue's Retry-After must exceed the old constant 1. The server is
// built but not Started so the scheduled dummies stay queued.
func TestRetryAfterTracksBacklog(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	tn := s.tenants.Default()
	// Pretend eight 10-second jobs are queued behind a slow history.
	s.noteJobDuration(10.0)
	for i := 0; i < 8; i++ {
		if err := s.sched.Enqueue(tn, i, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.retryAfterSeconds(tn); got != 60 {
		t.Errorf("Retry-After = %d, want 60 (9 jobs x 10s, one worker, clamped)", got)
	}
	for i := 0; i < 6; i++ {
		s.sched.Dequeue()
	}
	if got := s.retryAfterSeconds(tn); got != 30 {
		t.Errorf("Retry-After = %d, want 30 (3 jobs x 10s, one worker)", got)
	}
}

// TestConfigValidation covers the MaxSweepPoints config field: invalid
// values are rejected by New with a clear error, and a small configured
// cap is enforced by the sweep endpoint.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxSweepPoints: -1}); err == nil ||
		!strings.Contains(err.Error(), "MaxSweepPoints") {
		t.Errorf("New(MaxSweepPoints: -1) err = %v, want a MaxSweepPoints error", err)
	}
	if _, err := New(Config{MaxSweepPoints: 1 << 21}); err == nil ||
		!strings.Contains(err.Error(), "ceiling") {
		t.Errorf("New(MaxSweepPoints: 1<<21) err = %v, want a ceiling error", err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, MaxSweepPoints: 2})
	resp, raw := postJSON(t, ts, "/v1/sweeps",
		`{"template": {"workload": "gcc2k"}, "axes": {"seeds": [1, 2, 3]}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "max 2") {
		t.Errorf("3-point sweep on a max-2 server: status=%d body=%s, want 400 naming the cap", resp.StatusCode, raw)
	}
	resp2, _ := postJSON(t, ts, "/v1/sweeps",
		`{"template": {"workload": "gcc2k", "insts": 20000}, "axes": {"seeds": [1, 2]}}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Errorf("2-point sweep on a max-2 server: status=%d, want 202", resp2.StatusCode)
	}
}

// TestListJobs covers GET /v1/jobs: recency ordering, pagination, and
// parameter validation.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	workloads := []string{"gcc2k", "mcf", "sjeng"}
	ids := make([]string, len(workloads))
	for i, wl := range workloads {
		_, st := submit(t, ts, JobRequest{Workload: wl, Predictor: "lvp", Insts: 20_000})
		ids[i] = st.ID
		waitState(t, ts, st.ID, 30*time.Second, StateDone)
	}

	var list JobList
	get := func(query string, wantCode int) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET /v1/jobs%s status = %d, want %d", query, resp.StatusCode, wantCode)
		}
		if wantCode == http.StatusOK {
			list = JobList{}
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
		}
	}

	get("", http.StatusOK)
	if list.Total != 3 || len(list.Jobs) != 3 {
		t.Fatalf("list = total %d / %d rows, want 3/3", list.Total, len(list.Jobs))
	}
	// Most recent first, each with state + spec hash.
	for i, j := range list.Jobs {
		if j.ID != ids[len(ids)-1-i] {
			t.Errorf("row %d = %s, want %s (most recent first)", i, j.ID, ids[len(ids)-1-i])
		}
		if j.State != StateDone || j.SpecHash == "" || j.Workload == "" {
			t.Errorf("row %d missing fields: %+v", i, j)
		}
	}

	get("?limit=2", http.StatusOK)
	if len(list.Jobs) != 2 || list.Jobs[0].ID != ids[2] {
		t.Errorf("limit=2 returned %d rows starting %s", len(list.Jobs), list.Jobs[0].ID)
	}
	get("?limit=2&offset=2", http.StatusOK)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != ids[0] || list.Total != 3 {
		t.Errorf("offset page = %+v, want the oldest job only", list.Jobs)
	}
	get("?offset=99", http.StatusOK)
	if len(list.Jobs) != 0 {
		t.Errorf("past-the-end offset returned %d rows", len(list.Jobs))
	}
	get("?limit=0", http.StatusBadRequest)
	get("?limit=9999", http.StatusBadRequest)
	get("?offset=-1", http.StatusBadRequest)
}

func ExampleJobRequest_ResolveSpec() {
	r := JobRequest{Workload: "gcc2k"}
	sim, _ := r.ResolveSpec(spec.Defaults{Insts: 200_000, Seed: 0xC0FFEE})
	fmt.Println(len(sim.CanonicalHash()))
	// Output: 16
}
