package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// mustMetric asserts that the /metrics text contains the exact rendered
// line, failing with the relevant excerpt otherwise.
func mustMetric(t *testing.T, text, line string) {
	t.Helper()
	if !strings.Contains(text, line) {
		var got []string
		for _, l := range strings.Split(text, "\n") {
			if strings.Contains(l, "trace_artifact") {
				got = append(got, l)
			}
		}
		t.Fatalf("metrics missing %q; artifact lines:\n%s", line, strings.Join(got, "\n"))
	}
}

// TestJobsReplayTraceArtifacts pins the server's zero-regeneration
// property: across jobs that share a (workload, insts) spec, the
// instruction stream is generated exactly once — the baseline run
// records it, and every later run (including other predictors' runs)
// replays the shared artifact.
func TestJobsReplayTraceArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, pred := range []string{"lvp", "sap"} {
		resp, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: pred, Insts: 20_000})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", pred, resp.StatusCode)
		}
		waitState(t, ts, st.ID, 30*time.Second, StateDone)
	}
	text := metricsText(t, ts)
	mustMetric(t, text, `lvpd_trace_artifact_generated_total 1`)
	mustMetric(t, text, `lvpd_trace_artifact_hits_total{source="memory"} 2`)
	mustMetric(t, text, `lvpd_trace_artifact_received_total 0`)
}

// TestTraceEndpoints covers the artifact transfer surface: GET returns
// the stored artifact under its content address, PUT installs one (so
// a server that received an artifact serves all matching jobs with zero
// live generation), and both reject what they must.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := submit(t, ts, JobRequest{Workload: "mcf", Predictor: "lvp", Insts: 20_000})
	waitState(t, ts, st.ID, 30*time.Second, StateDone)

	key := trace.ArtifactKey("mcf", 20_000)
	resp, err := ts.Client().Get(ts.URL + "/v1/traces/" + key)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		t.Fatalf("GET trace: status %d, %d bytes", resp.StatusCode, len(data))
	}
	if _, err := gzip.NewReader(bytes.NewReader(data)); err != nil {
		t.Fatalf("artifact is not gzip: %v", err)
	}
	if resp, err = ts.Client().Get(ts.URL + "/v1/traces/ffffffffffffffff"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown trace: status %d, want 404", resp.StatusCode)
	}

	// A second server fed the artifact runs the same spec without ever
	// generating the stream.
	_, ts2 := newTestServer(t, Config{Workers: 1})
	put := func(key string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/traces/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := ts2.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(key, data); code != http.StatusNoContent {
		t.Fatalf("PUT trace: status %d, want 204", code)
	}
	if code := put(key, []byte("garbage")); code != http.StatusBadRequest {
		t.Fatalf("PUT garbage: status %d, want 400", code)
	}
	if code := put(trace.ArtifactKey("mcf", 21_000), data); code != http.StatusBadRequest {
		t.Fatalf("PUT under wrong address: status %d, want 400", code)
	}

	_, st = submit(t, ts2, JobRequest{Workload: "mcf", Predictor: "lvp", Insts: 20_000})
	waitState(t, ts2, st.ID, 30*time.Second, StateDone)
	text := metricsText(t, ts2)
	mustMetric(t, text, `lvpd_trace_artifact_generated_total 0`)
	mustMetric(t, text, `lvpd_trace_artifact_received_total 1`)
	mustMetric(t, text, `lvpd_trace_artifact_hits_total{source="memory"} 2`)
}

// TestTraceCacheDirSurvivesRestart pins what the disk layer leaves
// out: a synthetic stream is never written to the TraceCacheDir, so a
// restarted server over the same directory regenerates it.
// (TestUploadWorkloadSurvivesRestart pins the uploads the directory
// does keep.)
func TestTraceCacheDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, TraceCacheDir: dir})
	_, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 20_000})
	waitState(t, ts, st.ID, 30*time.Second, StateDone)

	_, ts2 := newTestServer(t, Config{Workers: 1, TraceCacheDir: dir})
	_, st = submit(t, ts2, JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 20_000})
	waitState(t, ts2, st.ID, 30*time.Second, StateDone)
	text := metricsText(t, ts2)
	mustMetric(t, text, `lvpd_trace_artifact_generated_total 1`)
	mustMetric(t, text, `lvpd_trace_artifact_hits_total{source="disk"} 0`)
	mustMetric(t, text, `lvpd_trace_artifact_hits_total{source="memory"} 1`)
	files, err := filepath.Glob(filepath.Join(dir, trace.ArtifactKey("gcc2k", 20_000)+"*"))
	if err != nil || len(files) != 0 {
		t.Fatalf("trace cache dir holds %v (err %v) for a synthetic stream, want nothing", files, err)
	}
}
