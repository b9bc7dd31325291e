package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func metricsOf(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func wantMetricLine(t *testing.T, text, line, who string) {
	t.Helper()
	if !strings.Contains(text, line) {
		var got []string
		for _, l := range strings.Split(text, "\n") {
			if strings.Contains(l, "trace_artifact") {
				got = append(got, l)
			}
		}
		t.Fatalf("%s metrics missing %q; artifact lines:\n%s", who, line, strings.Join(got, "\n"))
	}
}

// TestSweepRegeneratesSyntheticStreams pins the cluster's handling of
// synthetic streams: for a sweep whose points share one workload spec,
// the coordinator neither records nor ships the stream, and each
// worker generates it at most once — its later points replay the
// resident recording.
func TestSweepRegeneratesSyntheticStreams(t *testing.T) {
	workers := make([]*httptest.Server, 2)
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

	req := sweep64()
	req.Axes.Workloads = []string{"gcc2k"}
	req.Axes.Predictors = []string{"lvp", "sap", "cvp"}
	req.Axes.EntriesPer = nil
	req.Axes.Seeds = nil
	resp, body := postJSON(t, coordTS.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d: %s", resp.StatusCode, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		var cur SweepStatus
		getJSON(t, coordTS.URL+"/v1/sweeps/"+st.ID, &cur)
		if cur.State == "done" {
			if cur.Failed != 0 || cur.Done != 3 {
				t.Fatalf("sweep finished with done=%d failed=%d", cur.Done, cur.Failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not finish: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The coordinator recorded and shipped nothing.
	coordText := metricsOf(t, coordTS.URL)
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_generated_total 0", "coordinator")
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_shipped_total 0", "coordinator")

	// Each worker generated the sweep's one stream at most once and
	// received nothing; at least one worker ran a point. (Per-worker run
	// counts depend on dispatch placement.)
	var generated float64
	for i, w := range workers {
		text := metricsOf(t, w.URL)
		who := "worker " + strings.Repeat("I", i+1)
		wantMetricLine(t, text, "lvpd_trace_artifact_received_total 0", who)
		g := metricValue(t, text, "lvpd_trace_artifact_generated_total")
		if g > 1 {
			t.Errorf("%s generated the stream %v times, want at most 1", who, g)
		}
		generated += g
	}
	if generated < 1 {
		t.Errorf("workers generated %v streams in total, want at least 1", generated)
	}
}
