package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
)

// TestSMTSweepAcrossCluster drives a contexts-axis sweep through the
// full distributed path: the coordinator expands gcc2k/composite over
// 1, 2, and 4 hardware contexts, the workers generate the salted
// per-context streams themselves (nothing is pre-shipped), per-context
// results land in the coordinator's warehouse under the contexts
// column, and every point is bit-identical to single-node execution of
// the same sweep.
func TestSMTSweepAcrossCluster(t *testing.T) {
	workers := make([]*httptest.Server, 2)
	for i := range workers {
		workers[i], _ = newWorker(t)
	}
	cfg := fastConfig()
	cfg.DataDir = t.TempDir()
	coord, coordTS := newCoordinator(t, cfg)
	for _, w := range workers {
		resp, body := postJSON(t, coordTS.URL+"/v1/cluster/workers", map[string]string{"url": w.URL})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register: %d: %s", resp.StatusCode, body)
		}
	}

	req := server.SweepRequest{
		Template: server.JobRequest{Workload: "gcc2k", Predictor: "composite", Insts: 20_000},
		Axes:     server.SweepAxes{Contexts: []int{1, 2, 4}},
	}
	resp, body := postJSON(t, coordTS.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d: %s", resp.StatusCode, body)
	}
	var submitted SweepStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.Unique != 3 {
		t.Fatalf("contexts axis should expand to 3 unique points, got %+v", submitted)
	}
	final := waitSweepDone(t, coord, submitted.ID)
	if final.Done != 3 || final.Failed != 0 {
		t.Fatalf("sweep settled done=%d failed=%d", final.Done, final.Failed)
	}

	// One point per context count; single-context results leave the
	// contexts field at its omitted zero.
	byContexts := map[int]*server.RunResult{}
	for _, pt := range final.Points {
		if pt.Result == nil {
			t.Fatalf("point %s has no result", pt.SpecHash)
		}
		byContexts[pt.Result.Contexts] = pt.Result
	}
	if byContexts[0] == nil || byContexts[2] == nil || byContexts[4] == nil {
		t.Fatalf("expected context counts 0/2/4, got %v", byContexts)
	}
	four := byContexts[4]
	if len(four.PerContext) != 4 || four.Instructions != 80_000 || four.Workload != "gcc2k" {
		t.Fatalf("4-context point = %+v", four)
	}
	wantStreams := []string{"gcc2k", "gcc2k#1", "gcc2k#2", "gcc2k#3"}
	for i, cr := range four.PerContext {
		if cr.Stream != wantStreams[i] || cr.Instructions != 20_000 {
			t.Errorf("context %d = %s/%d insts, want %s/20000", i, cr.Stream, cr.Instructions, wantStreams[i])
		}
	}

	// The warehouse retained each point under its context count.
	wh := coord.Store().Warehouse()
	ctx := func(n int) *int { return &n }
	recs := wh.List(store.Filter{Contexts: ctx(4)})
	if len(recs) != 1 || recs[0].Contexts != 4 || recs[0].Workload != "gcc2k" {
		t.Fatalf("warehouse contexts=4 = %+v", recs)
	}
	var retained server.RunResult
	if err := json.Unmarshal(recs[0].Result, &retained); err != nil {
		t.Fatal(err)
	}
	if len(retained.PerContext) != 4 {
		t.Fatalf("retained 4-context record lost its per-context rows: %+v", retained)
	}
	if recs := wh.List(store.Filter{Contexts: ctx(1)}); len(recs) != 1 {
		t.Fatalf("warehouse contexts=1 = %+v", recs)
	}

	// The coordinator recorded and shipped nothing: the streams are
	// synthetic. Each worker generated each of the four distinct
	// streams (gcc2k + 3 salted) at most once.
	coordText := metricsOf(t, coordTS.URL)
	if g := metricValue(t, coordText, "lvpc_trace_artifacts_generated_total"); g != 0 {
		t.Errorf("coordinator generated %v artifacts, want 0", g)
	}
	if s := metricValue(t, coordText, "lvpc_trace_artifacts_shipped_total"); s != 0 {
		t.Errorf("coordinator shipped %v artifacts, want 0", s)
	}
	for i, w := range workers {
		text := metricsOf(t, w.URL)
		if g := metricValue(t, text, "lvpd_trace_artifact_generated_total"); g > 4 {
			t.Errorf("worker %d generated %v streams, want at most 4", i, g)
		}
	}

	// Cluster execution over worker-recorded streams must be
	// bit-identical to a fresh single node.
	single := singleNodeResults(t, req)
	for _, pt := range final.Points {
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
