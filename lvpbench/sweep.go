package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/spec"
)

// Sizes of cluster-sweep at -scale 1.
const (
	sweepPerProfile = 1      // sampled workloads per behaviour profile (6 profiles)
	sweepInsts      = 75_000 // per-context instruction budget
	sweepPoll       = 20 * time.Millisecond
	sweepMinRounds  = 3 // rounds even when -seconds is short
	sweepSetupReps  = 8 // extra set-ups before each round, besides its own
)

// sweepFamilies and sweepContexts are the sweep's other two axes.
var (
	sweepFamilies = []string{"lvp", "sap", "cvp", "cap", "composite", "best", "eves"}
	sweepContexts = []int{1, 4}
)

// sweepDefaults are the spec defaults of a stock coordinator.
var sweepDefaults = spec.Defaults{Insts: 200_000, MaxInsts: 5_000_000, Seed: server.DefaultSeed}

// fleet is an in-process durable coordinator fronting stock workers.
type fleet struct {
	coord   *cluster.Coordinator
	cts     *httptest.Server
	workers []*daemon
}

func (f *fleet) close() {
	f.cts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.coord.Shutdown(ctx) // the run is over; a slow drain only delays exit
	for _, w := range f.workers {
		w.close()
	}
}

// startFleet boots the coordinator (durable, default timing including
// its 100 ms completion poll, one dispatch slot per worker) and two
// stock lvpd workers with one simulation worker each, and registers the
// workers through the coordinator's API.
func (b *bench) startFleet(ctx context.Context, client *http.Client, dir string) (*fleet, error) {
	coord, err := cluster.New(cluster.Config{
		DataDir:     filepath.Join(dir, "coord"),
		WorkerSlots: 1,
		Logger:      quietLogger(),
	})
	if err != nil {
		return nil, err
	}
	coord.Start()
	f := &fleet{coord: coord, cts: httptest.NewServer(coord.Handler())}
	for i := 0; i < 2; i++ {
		w, err := startDaemon(server.Config{Workers: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		body := []byte(fmt.Sprintf(`{"url":%q}`, w.ts.URL))
		code, err := b.do(ctx, client, "POST", f.cts.URL+"/v1/cluster/workers", body, nil)
		if err != nil || code != http.StatusCreated {
			f.close()
			return nil, fmt.Errorf("registering worker %d: HTTP %d %v", i, code, err)
		}
	}
	return f, nil
}

// runSweep drives cluster-sweep: one seeded sweep over workloads ×
// predictor families × contexts {1, 4}, from POST /v1/sweeps until
// every point is terminal. The timed region is a number of rounds, each
// the same sweep on a freshly set-up fleet; another round starts while
// at least half of one still fits in -seconds.
func (b *bench) runSweep() error {
	ctx := context.Background()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.par, MaxConnsPerHost: b.par}}
	defer client.CloseIdleConnections()

	// Set-up: boot the fleet and register its workers. Booting takes a
	// few milliseconds, mostly WAL fsyncs, and the host's speed drifts,
	// so setup_s averages the middle half of the set-ups, which are
	// spread over the run, a few before each round.
	var setups []float64
	setUp := func(name string) (*fleet, error) {
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		f, err := b.startFleet(ctx, client, filepath.Join(b.work, name))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return f, nil
	}
	tearDown := func(f *fleet, name string) {
		f.close()
		_ = os.RemoveAll(filepath.Join(b.work, name))
	}

	names := b.stratifiedSample(sweepPerProfile)
	insts := b.scaledInsts(sweepInsts)
	req := server.SweepRequest{
		Template: server.JobRequest{Insts: insts},
		Axes:     server.SweepAxes{Workloads: names, Predictors: sweepFamilies, Contexts: sweepContexts},
	}
	points, err := req.Expand(sweepDefaults, 0)
	if err != nil {
		return err
	}
	want := make(map[string]server.Point)
	for _, p := range points {
		want[p.Hash] = p
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	b.report("workload cluster-sweep: %d points (%v x %v x contexts %v, %d insts per context) over 2 workers",
		len(points), names, sweepFamilies, sweepContexts, insts)

	// The rounds. A traced run instruments every other round, so
	// tracing.overhead_ratio compares the same work.
	rec := b.rec
	defer func() { b.rec = rec }()
	var first map[string]server.RunResult
	var lat, notify, sweepS, firstS, preshipS, tracedS, plainS []float64
	var deltas map[string]float64
	var dispatch []map[string]float64 // per round: after and before scrapes of the coordinator
	var total float64
	start := time.Now()
	for r := 0; r < sweepMinRounds || time.Since(start).Seconds()*(float64(r)+0.5)/float64(r) <= b.seconds; r++ {
		for i := 0; i < sweepSetupReps; i++ {
			name := fmt.Sprintf("setup-%d-%d", r, i)
			f, err := setUp(name)
			if err != nil {
				return err
			}
			tearDown(f, name)
		}
		name := fmt.Sprintf("round-%d", r)
		f, err := setUp(name)
		if err != nil {
			return err
		}
		instrumented := rec != nil && r%2 == 1
		if !instrumented {
			b.rec = nil
		}
		rd, err := b.sweepRound(ctx, client, f, body, start)
		b.rec = rec
		if err == nil && b.traced {
			var lags []float64
			lags, err = b.notifyLags(ctx, client, f, rd.status)
			notify = append(notify, lags...)
		}
		tearDown(f, name)
		if err != nil {
			return err
		}

		results := make(map[string]server.RunResult)
		var last time.Duration
		firstDone := time.Duration(math.MaxInt64)
		for _, pt := range rd.status.Points {
			p, known := want[pt.SpecHash]
			ok := known && pt.State == cluster.PointDone && pt.Result != nil && pt.Finished != nil &&
				pointInsts(pt.Result, p.Sim)
			b.check(ok, "round %d point %s (%s/%s): state %q known %v error %q", r, pt.SpecHash, pt.Workload, pt.Label, pt.State, known, pt.Error)
			if !ok {
				continue
			}
			results[pt.SpecHash] = stripped(*pt.Result)
			if r > 0 {
				prev, seen := first[pt.SpecHash]
				b.check(seen && equalJSON(prev, results[pt.SpecHash]), "round %d point %s: result differs from round 0", r, pt.SpecHash)
			}
			d := pt.Finished.Sub(rd.start)
			lat = append(lat, d.Seconds()*1e3)
			firstDone = min(firstDone, d)
			last = max(last, d)
		}
		b.check(len(rd.status.Points) == len(points), "round %d: sweep has %d unique points, want %d", r, len(rd.status.Points), len(points))
		if len(results) == 0 {
			return fmt.Errorf("round %d: no sweep point finished", r)
		}
		if r == 0 {
			first = results
		}
		sweepS = append(sweepS, last.Seconds())
		firstS = append(firstS, firstDone.Seconds())
		preshipS = append(preshipS, rd.preship.Seconds())
		total += last.Seconds()
		if instrumented {
			tracedS = append(tracedS, rd.observed.Seconds())
		} else {
			plainS = append(plainS, rd.observed.Seconds())
		}
		deltas = addDeltas(deltas, rd.deltas)
		dispatch = append(dispatch, rd.coordAfter, rd.coordBefore)
	}
	rounds := float64(len(sweepS))
	b.setE2E("setup_s", "s", midMean(setups))
	b.setE2E("sim_mips", "Minst/s", deltas["lvpd_sim_instructions_total"]/1e6/total)
	b.setE2E("ops_per_s", "1/s", float64(len(lat))/total)
	b.setE2E("op_ms_p50", "ms", quantile(lat, 0.5))
	b.setE2E("op_ms_p95", "ms", quantile(lat, 0.95))
	b.report("timed region %.2fs: %d rounds of one sweep; setup_s averages the middle half of %d set-ups", total, len(sweepS), len(setups))
	b.report("sweep_s %.4g s  first_result_s %.4g s  preship_s %.4g s  (medians over %d rounds)",
		median(sweepS), median(firstS), median(preshipS), len(sweepS))
	b.report("point_ms_p50 %.4g ms (n=%d)  point_ms_p95 %.4g ms (n=%d)", quantile(lat, 0.5), len(lat), quantile(lat, 0.95), len(lat))

	// Output checks on the first round: spec hashes re-derived, a seeded
	// sample re-simulated in-process, and the stats digest.
	acc := &layerAcc{}
	served := make(map[string]servedRun)
	hashes := make([]string, 0, len(first))
	for h := range first {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	var digest []any
	for _, h := range hashes {
		p := want[h]
		_, hash, err := b.canonical(ctx, b.tracedAcc(acc), p.Sim, sweepDefaults)
		b.check(err == nil && hash == h, "point %s: canonical hash %s (%v)", h, hash, err)
		// Workers receive each point as a spec-form job, so the result
		// carries the label such a job echoes.
		served[h] = servedRun{p.Sim, server.JobRequest{Spec: &p.Sim}.Label(p.Sim), first[h]}
		digest = append(digest, []any{h, first[h]})
	}
	streams, err := b.resimSample(ctx, acc, served)
	if err != nil {
		return err
	}
	b.report("failed_ratio %.4g (%d of %d operations)", ratio(b.failed, b.attempted), b.failed, b.attempted)
	b.checkDigest(digestOf(digest))

	if b.traced {
		b.reportLayerRuns(acc, acc)
		b.setArtifactCounts((deltas["lvpc_trace_artifacts_generated_total"]+deltas[artGenerated])/rounds,
			deltas[artMemHits]/rounds, deltas[artDiskHits]/rounds)
		b.standaloneReplays(ctx, streams, nil)
		b.setLayer("tracing.overhead_ratio", "ratio", median(tracedS)/median(plainS))

		var p50 []float64
		for i := 0; i < len(dispatch); i += 2 {
			p50 = append(p50, histQuantile(dispatch[i], dispatch[i+1], "lvpc_worker_dispatch_seconds", 0.5))
		}
		fsyncs := deltas["lvpc_wal_fsync_seconds_count"]
		b.report("layer cluster.preship_s %.4g s  cluster.artifacts_generated %.4g  cluster.artifacts_shipped %.4g (per round)",
			median(preshipS), deltas["lvpc_trace_artifacts_generated_total"]/rounds, deltas["lvpc_trace_artifacts_shipped_total"]/rounds)
		b.report("layer cluster.dispatch_ms_p50 %.4g ms (median over rounds, n=%.0f)  cluster.notify_lag_ms_p50 %.4g ms (n=%d)",
			1e3*median(p50), deltas["lvpc_worker_dispatch_seconds_count"], quantile(notify, 0.5), len(notify))
		b.report("layer cluster.worker_busy_ratio %.4g  cluster.retries %.0f  cluster.steals %.0f",
			deltas["lvpd_job_duration_seconds_sum"]/(2*total), deltas["lvpc_points_retried_total"], deltas["lvpc_points_stolen_total"])
		b.report("layer store.wal_fsync_ms_mean %.4g ms  store.wal_fsyncs %.4g per round",
			1e3*deltas["lvpc_wal_fsync_seconds_sum"]/max(fsyncs, 1), fsyncs/rounds)
	}
	return nil
}

// sweepRun is one round of cluster-sweep as the client saw it.
type sweepRun struct {
	status            cluster.SweepStatus
	start             time.Time     // POST /v1/sweeps sent
	preship, observed time.Duration // until the 202, until the client saw the sweep done
	deltas            map[string]float64
	// The coordinator's scrapes around the round, for its dispatch
	// histogram.
	coordBefore, coordAfter map[string]float64
}

// sweepRound sends the sweep to f and polls it until it is done. It
// gives up when the run has lasted 150 s since runStart.
func (b *bench) sweepRound(ctx context.Context, client *http.Client, f *fleet, body []byte, runStart time.Time) (sweepRun, error) {
	var rd sweepRun
	scrapeAll := func() ([]map[string]float64, error) {
		var out []map[string]float64
		for _, u := range []string{f.cts.URL, f.workers[0].ts.URL, f.workers[1].ts.URL} {
			m, err := b.scrape(ctx, client, u)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	before, err := scrapeAll()
	if err != nil {
		return rd, err
	}
	rd.start = time.Now()
	var sub cluster.SweepStatus
	code, err := b.do(ctx, client, "POST", f.cts.URL+"/v1/sweeps", body, &sub)
	rd.preship = time.Since(rd.start)
	if err != nil || code != http.StatusAccepted {
		return rd, fmt.Errorf("submitting the sweep: HTTP %d %v", code, err)
	}
	for {
		code, err := b.do(ctx, client, "GET", f.cts.URL+"/v1/sweeps/"+sub.ID, nil, &rd.status)
		if err != nil || code != http.StatusOK {
			return rd, fmt.Errorf("polling the sweep: HTTP %d %v", code, err)
		}
		if rd.status.State == "done" {
			break
		}
		if time.Since(runStart) > 150*time.Second {
			return rd, fmt.Errorf("sweep still running after %v", time.Since(rd.start))
		}
		time.Sleep(sweepPoll)
	}
	rd.observed = time.Since(rd.start)
	after, err := scrapeAll()
	if err != nil {
		return rd, err
	}
	coord := func(name string) float64 { return sumMetric(after[0], name) - sumMetric(before[0], name) }
	workers := func(name string, labels ...string) float64 {
		var t float64
		for i := 1; i < len(after); i++ {
			t += sumMetric(after[i], name, labels...) - sumMetric(before[i], name, labels...)
		}
		return t
	}
	rd.deltas = map[string]float64{
		"lvpd_sim_instructions_total":          workers("lvpd_sim_instructions_total"),
		"lvpd_job_duration_seconds_sum":        workers("lvpd_job_duration_seconds_sum"),
		artGenerated:                           workers(artGenerated),
		artMemHits:                             workers("lvpd_trace_artifact_hits_total", `source="memory"`),
		artDiskHits:                            workers("lvpd_trace_artifact_hits_total", `source="disk"`),
		"lvpc_trace_artifacts_generated_total": coord("lvpc_trace_artifacts_generated_total"),
		"lvpc_trace_artifacts_shipped_total":   coord("lvpc_trace_artifacts_shipped_total"),
		"lvpc_worker_dispatch_seconds_count":   coord("lvpc_worker_dispatch_seconds_count"),
		"lvpc_points_retried_total":            coord("lvpc_points_retried_total"),
		"lvpc_points_stolen_total":             coord("lvpc_points_stolen_total"),
		"lvpc_wal_fsync_seconds_count":         coord("lvpc_wal_fsync_seconds_count"),
		"lvpc_wal_fsync_seconds_sum":           coord("lvpc_wal_fsync_seconds_sum"),
	}
	rd.coordBefore, rd.coordAfter = before[0], after[0]
	return rd, nil
}

// pointInsts checks a point simulated its full budget on every context.
func pointInsts(r *server.RunResult, sim spec.Sim) bool {
	n := sim.Machine.NumContexts()
	if r.Instructions != sim.Workload.Insts*uint64(n) {
		return false
	}
	for _, c := range r.PerContext {
		if c.Instructions != sim.Workload.Insts {
			return false
		}
	}
	return n == 1 || len(r.PerContext) == n
}

// notifyLags returns, per point, how long after its worker finished
// the job the coordinator marked the point finished, in milliseconds.
func (b *bench) notifyLags(ctx context.Context, client *http.Client, f *fleet, st cluster.SweepStatus) ([]float64, error) {
	finished := make(map[string]time.Time)
	for _, w := range f.workers {
		var list server.JobList
		code, err := b.do(ctx, client, "GET", w.ts.URL+"/v1/jobs?state=done&limit=500", nil, &list)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("listing worker jobs: HTTP %d %v", code, err)
		}
		for _, j := range list.Jobs {
			if j.Finished != nil && !j.CacheHit {
				finished[j.SpecHash] = *j.Finished
			}
		}
	}
	var out []float64
	for _, pt := range st.Points {
		if t, ok := finished[pt.SpecHash]; ok && pt.Finished != nil {
			out = append(out, pt.Finished.Sub(t).Seconds()*1e3)
		}
	}
	return out, nil
}

// histQuantile estimates the q-quantile of the observations a
// Prometheus histogram gained between two scrapes, interpolating within
// the bucket that holds it (all label sets merged).
func histQuantile(after, before map[string]float64, name string, q float64) float64 {
	counts := make(map[float64]float64)
	for k, v := range after {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			bound = math.Inf(1)
		}
		counts[bound] += v - before[k]
	}
	bounds := make([]float64, 0, len(counts))
	for bd := range counts {
		bounds = append(bounds, bd)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * counts[bounds[len(bounds)-1]]
	prevBound, prevCount := 0.0, 0.0
	for _, bd := range bounds {
		c := counts[bd]
		if c >= rank {
			if math.IsInf(bd, 1) {
				return prevBound
			}
			if c == prevCount {
				return bd
			}
			return prevBound + (bd-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = bd, c
	}
	return prevBound
}
