package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// waitSweepDone polls a coordinator until the sweep settles.
func waitSweepDone(t *testing.T, c *Coordinator, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := c.SweepStatusByID(id, true)
		if ok && st.State == "done" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.SweepStatusByID(id, true)
	t.Fatalf("sweep %s did not settle: %+v", id, st)
	return SweepStatus{}
}

// TestCoordinatorResumesOwedSweepAfterRestart is the coordinator
// durability acceptance: a sweep accepted with no workers available is
// abandoned by a hard shutdown, and a fresh coordinator on the same
// data dir owes it, re-dispatches it under the original sweep ID, and
// finishes it. A third generation then answers the same sweep entirely
// from the result warehouse without any worker at all.
func TestCoordinatorResumesOwedSweepAfterRestart(t *testing.T) {
	dir := t.TempDir()
	req := server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k"},
			Predictors: []string{"lvp", "sap"},
		},
	}
	cfg := fastConfig()
	cfg.DataDir = dir

	// Generation 1: accept the sweep with zero workers, then die before
	// any point dispatches.
	gen1, err := New(cfg)
	if err != nil {
		t.Fatalf("gen1: %v", err)
	}
	gen1.Start()
	st, err := gen1.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("gen1 sweep: %v", err)
	}
	if st.Pending != 2 {
		t.Fatalf("expected 2 pending points, got %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = gen1.Shutdown(ctx) // deadline forces abandonment of both points
	cancel()

	// Generation 2: same data dir, one live worker. The WAL must owe
	// the sweep under its original ID and finish it.
	wts, _ := newWorker(t)
	gen2, err := New(cfg)
	if err != nil {
		t.Fatalf("gen2: %v", err)
	}
	owed, ok := gen2.SweepStatusByID(st.ID, false)
	if !ok {
		t.Fatalf("gen2 does not remember sweep %s", st.ID)
	}
	if owed.Pending != 2 {
		t.Fatalf("gen2 should owe 2 points, got %+v", owed)
	}
	gen2.Start()
	if _, _, err := gen2.RegisterWorker(context.Background(), wts.URL); err != nil {
		t.Fatalf("register worker: %v", err)
	}
	final := waitSweepDone(t, gen2, st.ID)
	if final.Done != 2 || final.Failed != 0 {
		t.Fatalf("resumed sweep did not finish cleanly: %+v", final)
	}
	for _, pt := range final.Points {
		if pt.Result == nil {
			t.Fatalf("resumed point %s has no result", pt.SpecHash)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	if err := gen2.Shutdown(ctx2); err != nil {
		t.Fatalf("gen2 shutdown: %v", err)
	}
	cancel2()

	// Generation 3: no workers registered, yet the same sweep settles
	// at submit — every point comes out of the result warehouse.
	gen3, err := New(cfg)
	if err != nil {
		t.Fatalf("gen3: %v", err)
	}
	gen3.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = gen3.Shutdown(ctx)
	})
	st3, err := gen3.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("gen3 sweep: %v", err)
	}
	if st3.State != "done" || st3.Cached != 2 {
		t.Fatalf("gen3 should answer wholly from the warehouse, got %+v", st3)
	}
	full, _ := gen3.SweepStatusByID(st3.ID, true)
	for i, pt := range full.Points {
		want := stripNondeterminism(*final.Points[i].Result)
		got := stripNondeterminism(*pt.Result)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("warehouse result for %s drifted:\n got %+v\nwant %+v", pt.SpecHash, got, want)
		}
	}
}

func authedPostJSON(t *testing.T, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// TestCoordinatorAuthAndTenantPropagation covers the multi-tenant
// cluster path: the coordinator's own API requires a key, per-tenant
// sweep caps apply, and dispatches reach a key-protected worker with
// the submitting tenant attributed via the proxy header.
func TestCoordinatorAuthAndTenantPropagation(t *testing.T) {
	wreg, err := tenant.New([]tenant.Tenant{
		{Name: "alice", APIKey: "alice-key"},
		{Name: "fleet", APIKey: "fleet-key", Proxy: true},
	})
	if err != nil {
		t.Fatalf("worker registry: %v", err)
	}
	wsrv, err := server.New(server.Config{
		Workers:      2,
		QueueDepth:   64,
		CacheSize:    256,
		DefaultInsts: 20_000,
		Tenants:      wreg,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	wsrv.Start()
	wts := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() {
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = wsrv.Shutdown(ctx)
	})

	creg, err := tenant.New([]tenant.Tenant{
		{Name: "alice", APIKey: "alice-key", MaxSweepPoints: 4},
	})
	if err != nil {
		t.Fatalf("coordinator registry: %v", err)
	}
	cfg := fastConfig()
	cfg.Tenants = creg
	cfg.WorkerAPIKey = "fleet-key"
	coord, cts := newCoordinator(t, cfg)
	if _, _, err := coord.RegisterWorker(context.Background(), wts.URL); err != nil {
		t.Fatalf("register worker: %v", err)
	}

	req := server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k"},
			Predictors: []string{"lvp", "sap"},
		},
	}

	// No key: the coordinator API is closed.
	if resp, _ := postJSON(t, cts.URL+"/v1/sweeps", req); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless sweep: want 401, got %d", resp.StatusCode)
	}
	// Alice beyond her per-tenant expansion cap.
	if resp, body := authedPostJSON(t, cts.URL+"/v1/sweeps", "alice-key", sweep64()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap sweep: want 400, got %d: %s", resp.StatusCode, body)
	}
	// Alice within her cap: accepted, attributed, and finished on a
	// worker that only admits authenticated, attributed work.
	resp, body := authedPostJSON(t, cts.URL+"/v1/sweeps", "alice-key", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: want 202, got %d: %s", resp.StatusCode, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode sweep status: %v", err)
	}
	if st.Tenant != "alice" {
		t.Fatalf("sweep tenant = %q, want alice", st.Tenant)
	}
	final := waitSweepDone(t, coord, st.ID)
	if final.Done != 2 || final.Failed != 0 {
		t.Fatalf("sweep did not finish cleanly: %+v", final)
	}

	// The worker attributed the dispatched jobs to alice, not to the
	// fleet credential.
	wreq, _ := http.NewRequest(http.MethodGet, wts.URL+"/v1/jobs?tenant=alice", nil)
	wreq.Header.Set("X-API-Key", "alice-key")
	wresp, err := http.DefaultClient.Do(wreq)
	if err != nil {
		t.Fatalf("worker job list: %v", err)
	}
	defer wresp.Body.Close()
	var list struct {
		Jobs []server.JobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(wresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode job list: %v", err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("worker should hold 2 alice jobs, got %d", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.Tenant != "alice" {
			t.Fatalf("job %s attributed to %q, want alice", j.ID, j.Tenant)
		}
	}
}

// TestSweepWarehouseRows pins the coordinator's settle order and its
// cache-hit rule. When a sweep first reads done, every point's
// warehouse row is already written and every point is counted.
// Resubmitting the sweep, which the cache answers at submit, leaves
// each row's trace and time as the point's settle wrote them.
func TestSweepWarehouseRows(t *testing.T) {
	cfg := fastConfig()
	cfg.DataDir = t.TempDir()
	coord, _ := newCoordinator(t, cfg)
	for i := 0; i < 2; i++ {
		wts, _ := newWorker(t)
		if _, _, err := coord.RegisterWorker(context.Background(), wts.URL); err != nil {
			t.Fatalf("register worker: %v", err)
		}
	}
	req := server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k", "mcf"},
			Predictors: []string{"lvp", "sap", "cvp"},
		},
	}
	st, err := coord.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Poll finely: the first read that says done must find every row.
	deadline := time.Now().Add(60 * time.Second)
	var final SweepStatus
	for {
		final, _ = coord.SweepStatusByID(st.ID, true)
		if final.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not settle: %+v", st.ID, final)
		}
		time.Sleep(100 * time.Microsecond)
	}
	done, tenantDone := coord.mPtsDone.Value(), coord.mTenantPoints[st.Tenant].Value()
	wh := coord.Store().Warehouse()
	rows := make(map[string]store.RunRecord, len(final.Points))
	for _, pt := range final.Points {
		rec, ok := wh.Get(pt.SpecHash)
		if !ok {
			t.Errorf("point %s reads %s before its warehouse row lands", pt.SpecHash, pt.State)
			continue
		}
		rows[pt.SpecHash] = rec
	}
	if done != 6 || tenantDone != 6 {
		t.Errorf("sweep reads done with points counted done=%d, for its tenant %d; want 6", done, tenantDone)
	}
	if final.Done != 6 || len(rows) != 6 {
		t.Fatalf("sweep settled done=%d failed=%d with %d rows, want 6 done with 6 rows", final.Done, final.Failed, len(rows))
	}

	again, err := coord.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || again.Cached != 6 {
		t.Fatalf("resubmission = %+v, want done with 6 cached points", again)
	}
	for hash, was := range rows {
		now, _ := wh.Get(hash)
		if now.TraceID != was.TraceID || !now.Time.Equal(was.Time) {
			t.Errorf("cache hit rewrote row %s: trace %s at %v, was %s at %v",
				hash, now.TraceID, now.Time, was.TraceID, was.Time)
		}
	}
}
