package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
	"repro/internal/trace"
)

func mustExpr(t *testing.T, q string) tsdb.Expr {
	t.Helper()
	e, err := tsdb.ParseExpr(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return e
}

// TestFederationThreeWorkers scrapes a 3-worker fleet into the
// coordinator's embedded store, kills one worker, and verifies the
// dead worker goes stale (up=0, unhealthy target, stale annotation)
// without poisoning the merged series of the survivors.
func TestFederationThreeWorkers(t *testing.T) {
	cfg := fastConfig()
	cfg.ObsScrapeInterval = time.Hour // only explicit ScrapeObs passes
	coord, ts := newCoordinator(t, cfg)

	type wk struct {
		id string
		ts interface{ Close() }
	}
	var fleet []wk
	for i := 0; i < 3; i++ {
		wts, _ := newWorker(t)
		st, _, err := coord.RegisterWorker(context.Background(), wts.URL)
		if err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		fleet = append(fleet, wk{id: st.ID, ts: wts})
	}

	t0 := time.Now()
	coord.ScrapeObs(t0)

	// Every target answered: up{} for self plus up{worker=<id>} per
	// worker, all 1.
	ups := coord.TSDB().Eval(mustExpr(t, "up"), t0)
	if len(ups) != 4 {
		t.Fatalf("up series = %d, want 4 (self + 3 workers): %+v", len(ups), ups)
	}
	for _, r := range ups {
		if r.Value != 1 {
			t.Errorf("up%v = %v, want 1", r.Labels, r.Value)
		}
	}

	// Worker metrics federate under the worker label: each worker's
	// sim-throughput gauge becomes its own series in the merged store.
	mips := coord.TSDB().Eval(mustExpr(t, "lvpd_sim_mips"), t0)
	seen := map[string]bool{}
	for _, r := range mips {
		seen[r.Labels["worker"]] = true
	}
	for _, w := range fleet {
		if !seen[w.id] {
			t.Errorf("merged lvpd_sim_mips missing worker %s: have %v", w.id, seen)
		}
	}

	// Kill worker 0's HTTP front-end and scrape again: its target goes
	// stale instead of wedging or corrupting the pass.
	dead := fleet[0]
	dead.ts.Close()
	t1 := t0.Add(5 * time.Second)
	coord.ScrapeObs(t1)

	ups = coord.TSDB().Eval(mustExpr(t, "up"), t1)
	byWorker := map[string]float64{}
	for _, r := range ups {
		byWorker[r.Labels["worker"]] = r.Value
	}
	if byWorker[dead.id] != 0 {
		t.Errorf("up{worker=%s} = %v after kill, want 0", dead.id, byWorker[dead.id])
	}
	for _, w := range fleet[1:] {
		if byWorker[w.id] != 1 {
			t.Errorf("up{worker=%s} = %v, want 1 (survivor poisoned?)", w.id, byWorker[w.id])
		}
	}
	st, ok := coord.Collector().StatusByKey(dead.id)
	if !ok || st.Healthy {
		t.Errorf("dead worker target status = %+v, want unhealthy", st)
	}

	// The HTTP endpoint annotates the stale target so a dashboard can
	// tell a merged series is missing fresh samples from that worker.
	var resp struct {
		Query   string           `json:"query"`
		Results []map[string]any `json:"results"`
		Stale   []string         `json:"stale_targets"`
	}
	getJSON(t, ts.URL+"/v1/metrics/query?q=up&time_ms="+
		strconv.FormatInt(t1.UnixMilli(), 10), &resp)
	if len(resp.Results) == 0 {
		t.Fatalf("query endpoint returned no results")
	}
	foundStale := false
	for _, k := range resp.Stale {
		if k == dead.id {
			foundStale = true
		}
	}
	if !foundStale {
		t.Errorf("stale_targets = %v, want to include %s", resp.Stale, dead.id)
	}

	// Alerts endpoint answers even with alerting disabled.
	var alerts struct {
		Enabled bool `json:"enabled"`
	}
	getJSON(t, ts.URL+"/v1/alerts", &alerts)
	if alerts.Enabled {
		t.Errorf("alerts enabled without a rule set")
	}
}

// TestCoordinatorRequestHistogram verifies the coordinator's HTTP
// middleware records normalized routes into its duration histogram.
func TestCoordinatorRequestHistogram(t *testing.T) {
	cfg := fastConfig()
	cfg.ObsScrapeInterval = time.Hour
	coord, ts := newCoordinator(t, cfg)

	var h ClusterHealth
	getJSON(t, ts.URL+"/healthz", &h)

	coord.ScrapeObs(time.Now())
	rs := coord.TSDB().Eval(mustExpr(t, "lvpc_http_request_duration_seconds_count"), time.Now())
	found := false
	for _, r := range rs {
		if r.Labels["route"] == "/healthz" && r.Labels["code"] == "200" && r.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no /healthz sample in request histogram: %+v", rs)
	}
}

// TestMetricsConventions lints every metric the worker daemon and the
// coordinator expose against the repo's naming rules: counters end in
// _total, histograms carry a unit suffix, every family has HELP, no
// duplicate series, bounded per-family cardinality — and the whole
// exposition round-trips through the tsdb parser. After one request
// through Handler and one upload, each daemon must also expose every
// family listed below with its label keys: dashboards, alert rules and
// the repository benchmark read these series.
func TestMetricsConventions(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	coord, errC := New(fastConfig())
	if errC != nil {
		t.Fatal(errC)
	}
	upload := encodeTrace(t, "gcc2k", 1000)
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
		h    http.Handler
		want map[string]string // family -> comma-joined label keys
	}{
		{"lvpd", srv.Registry(), srv.Handler(), map[string]string{
			"lvpd_alerts_firing":                  "",
			"lvpd_auth_failures_total":            "",
			"lvpd_cache_hits_total":               "",
			"lvpd_cache_misses_total":             "",
			"lvpd_http_request_duration_seconds":  "code,route",
			"lvpd_http_requests_total":            "code",
			"lvpd_job_duration_seconds":           "",
			"lvpd_jobs_inflight":                  "",
			"lvpd_jobs_total":                     "state",
			"lvpd_queue_depth":                    "",
			"lvpd_sim_instructions_total":         "",
			"lvpd_sim_mips":                       "",
			"lvpd_sse_streams_dropped_total":      "",
			"lvpd_tenant_jobs_total":              "state,tenant",
			"lvpd_tenant_queue_depth":             "tenant",
			"lvpd_tenant_queue_wait_seconds":      "tenant",
			"lvpd_tenant_sim_instructions_total":  "tenant",
			"lvpd_tenant_starvation_ratio":        "tenant",
			"lvpd_trace_artifact_corrupt_total":   "",
			"lvpd_trace_artifact_generated_total": "",
			"lvpd_trace_artifact_hits_total":      "source",
			"lvpd_trace_artifact_received_total":  "",
			"lvpd_trace_uploads_total":            "",
			"lvpd_tsdb_dropped_series_total":      "",
			"lvpd_tsdb_series":                    "",
			"lvpd_wal_fsync_seconds":              "",
			"obs_dropped_series_total":            "",
		}},
		{"lvpc", coord.Registry(), coord.Handler(), map[string]string{
			"lvpc_alerts_firing":                      "",
			"lvpc_auth_failures_total":                "",
			"lvpc_http_request_duration_seconds":      "code,route",
			"lvpc_points_dispatched_total":            "",
			"lvpc_points_inflight":                    "",
			"lvpc_points_retried_total":               "",
			"lvpc_points_stolen_total":                "",
			"lvpc_points_total":                       "state",
			"lvpc_tenant_points_done_total":           "tenant",
			"lvpc_tenant_sweeps_total":                "tenant",
			"lvpc_trace_artifact_ship_failures_total": "",
			"lvpc_trace_artifacts_generated_total":    "",
			"lvpc_trace_artifacts_shipped_total":      "",
			"lvpc_trace_uploads_total":                "",
			"lvpc_tsdb_dropped_series_total":          "",
			"lvpc_tsdb_series":                        "",
			"lvpc_wal_fsync_seconds":                  "",
			"lvpc_workers":                            "state",
			"lvpc_workers_quarantined_total":          "",
			"obs_dropped_series_total":                "",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/workloads", bytes.NewReader(upload)))
			if rec.Code != http.StatusCreated {
				t.Fatalf("upload: %d: %s", rec.Code, rec.Body)
			}
			var buf bytes.Buffer
			if _, err := tc.reg.WriteTo(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			fams, err := tsdb.ParseExposition(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("exposition does not round-trip: %v", err)
			}
			if len(fams) == 0 {
				t.Fatal("registry rendered no families")
			}
			for _, issue := range tsdb.Lint(fams, tsdb.LintOptions{}) {
				t.Errorf("%s", issue)
			}
			have := map[string]string{}
			for _, f := range fams {
				keys := map[string]bool{}
				for _, smp := range f.Samples {
					for i := 0; i+1 < len(smp.Labels); i += 2 {
						if smp.Labels[i] != "le" {
							keys[smp.Labels[i]] = true
						}
					}
				}
				var ks []string
				for k := range keys {
					ks = append(ks, k)
				}
				sort.Strings(ks)
				have[f.Name] = strings.Join(ks, ",")
			}
			for name, keys := range tc.want {
				got, ok := have[name]
				switch {
				case !ok:
					t.Errorf("family %s disappeared", name)
				case got != keys:
					t.Errorf("family %s label keys = %q, want %q", name, got, keys)
				}
			}
		})
	}
}

// TestRouteAndCodeLabels sends one request to every route each daemon
// registers and checks the labels its latency histogram records: the
// route is the path of the matched mux pattern ("other" when nothing
// matches) and the code is the status number, 201, 204 and 422
// included.
func TestRouteAndCodeLabels(t *testing.T) {
	_, srv := newWorker(t)
	coord, _ := newCoordinator(t, fastConfig())
	upload := encodeTrace(t, "gcc2k", 1000)
	arts, err := trace.NewArtifactStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	key, artifact, err := arts.Artifact("mcf", 1000)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		method, path string
		body         []byte
		route        string
		code         int // 0 = any
	}
	shared := []row{
		{"GET", "/healthz", nil, "/healthz", 200},
		{"GET", "/readyz", nil, "/readyz", 0},
		{"GET", "/metrics", nil, "/metrics", 200},
		{"GET", "/debug/traces", nil, "/debug/traces", 200},
		{"GET", "/debug/traces/0123", nil, "/debug/traces/{id}", 0},
		{"GET", "/v1/metrics/query?q=up", nil, "/v1/metrics/query", 200},
		{"GET", "/v1/alerts", nil, "/v1/alerts", 200},
		{"POST", "/v1/workloads", upload, "/v1/workloads", 201},
		{"POST", "/v1/workloads", []byte("not a trace"), "/v1/workloads", 422},
		{"POST", "/v1/sweeps", nil, "/v1/sweeps", 400},
		{"PATCH", "/healthz", nil, "other", 405},
		{"GET", "/v1/jobs/a/b/c", nil, "other", 404},
	}
	for _, tc := range []struct {
		prefix string
		reg    *obs.Registry
		h      http.Handler
		rows   []row
	}{
		{"lvpd", srv.Registry(), srv.Handler(), append([]row{
			{"POST", "/v1/jobs", nil, "/v1/jobs", 400},
			{"GET", "/v1/jobs", nil, "/v1/jobs", 200},
			{"GET", "/v1/jobs/j-9", nil, "/v1/jobs/{id}", 404},
			{"GET", "/v1/jobs/j-9/events", nil, "/v1/jobs/{id}/events", 404},
			{"GET", "/v1/jobs/j-9/flightrecord", nil, "/v1/jobs/{id}/flightrecord", 404},
			{"DELETE", "/v1/jobs/j-9", nil, "/v1/jobs/{id}", 404},
			{"GET", "/v1/runs", nil, "/v1/runs", 0},
			{"GET", "/v1/runs/diff", nil, "/v1/runs/diff", 0},
			{"GET", "/v1/runs/0123", nil, "/v1/runs/{hash}", 0},
			{"GET", "/v1/traces/0123", nil, "/v1/traces/{hash}", 404},
			{"PUT", "/v1/traces/" + key, artifact, "/v1/traces/{hash}", 204},
			{"GET", "/v1/presets", nil, "/v1/presets", 200},
			{"GET", "/v1/workloads", nil, "/v1/workloads", 200},
			{"GET", "/debug/pprof/", nil, "/debug/pprof/", 200},
			{"GET", "/debug/pprof/heap", nil, "/debug/pprof/", 0},
			{"GET", "/debug/pprof/cmdline", nil, "/debug/pprof/cmdline", 200},
			{"GET", "/debug/pprof/profile", nil, "/debug/pprof/profile", 0},
			{"GET", "/debug/pprof/symbol", nil, "/debug/pprof/symbol", 200},
			{"GET", "/debug/pprof/trace", nil, "/debug/pprof/trace", 0},
		}, shared...)},
		{"lvpc", coord.Registry(), coord.Handler(), append([]row{
			{"POST", "/v1/cluster/workers", []byte(`{}`), "/v1/cluster/workers", 400},
			{"GET", "/v1/cluster/workers", nil, "/v1/cluster/workers", 200},
			{"DELETE", "/v1/cluster/workers/w-9", nil, "/v1/cluster/workers/{id}", 404},
			{"GET", "/v1/sweeps", nil, "/v1/sweeps", 200},
			{"GET", "/v1/sweeps/s-9", nil, "/v1/sweeps/{id}", 404},
		}, shared...)},
	} {
		t.Run(tc.prefix, func(t *testing.T) {
			// A cancelled context makes the pprof profile and trace
			// handlers return at once instead of sampling for seconds.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, r := range tc.rows {
				var body io.Reader
				if r.body != nil {
					body = bytes.NewReader(r.body)
				}
				req := httptest.NewRequest(r.method, r.path, body).WithContext(ctx)
				rec := httptest.NewRecorder()
				before := requestCounts(t, tc.reg, tc.prefix)
				tc.h.ServeHTTP(rec, req)
				if r.code != 0 && rec.Code != r.code {
					t.Errorf("%s %s answered %d, want %d: %s", r.method, r.path, rec.Code, r.code, rec.Body)
				}
				want := [2]string{r.route, strconv.Itoa(rec.Code)}
				for k, n := range requestCounts(t, tc.reg, tc.prefix) {
					if n != before[k] && k != want {
						t.Errorf("%s %s recorded under route=%q code=%q, want route=%q code=%q",
							r.method, r.path, k[0], k[1], want[0], want[1])
					}
				}
				if after := requestCounts(t, tc.reg, tc.prefix)[want]; after != before[want]+1 {
					t.Errorf("%s %s: route=%q code=%q count %v -> %v, want one more",
						r.method, r.path, want[0], want[1], before[want], after)
				}
			}
		})
	}
}

// requestCounts reads <prefix>_http_request_duration_seconds_count
// from reg's exposition, keyed by its route and code labels.
func requestCounts(t *testing.T, reg *obs.Registry, prefix string) map[[2]string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	fams, err := tsdb.ParseExposition(&buf)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	out := map[[2]string]float64{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			if smp.Name != prefix+"_http_request_duration_seconds_count" {
				continue
			}
			var k [2]string
			for i := 0; i+1 < len(smp.Labels); i += 2 {
				switch smp.Labels[i] {
				case "route":
					k[0] = smp.Labels[i+1]
				case "code":
					k[1] = smp.Labels[i+1]
				}
			}
			out[k] = smp.Value
		}
	}
	return out
}
