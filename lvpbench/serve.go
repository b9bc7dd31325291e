package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// Sizes of serve-jobs at -scale 1.
const (
	serveRoundJobs  = 400     // jobs in one round's mix
	serveInstsShort = 100_000 // the two job budgets
	serveInstsLong  = 200_000
	serveExtInsts   = 100_000 // instructions in the uploaded LVPX trace
	serveMinRounds  = 3       // rounds even when -seconds is short
	serveSetupReps  = 4       // extra set-ups before each round, besides its own
	serveClients    = 2       // closed-loop clients, at most GOMAXPROCS
)

// serveDefaults are the spec defaults of a stock lvpd.
var serveDefaults = spec.Defaults{Insts: 200_000, MaxInsts: 5_000_000, Seed: server.DefaultSeed}

// mixSpecs lists every predictor family and storage budget a job over
// one stream can take.
var mixSpecs = func() []spec.PredictorSpec {
	var out []spec.PredictorSpec
	for _, f := range []spec.Family{
		spec.FamilyLVP, spec.FamilySAP, spec.FamilyCVP, spec.FamilyCAP,
		spec.FamilyComposite, spec.FamilyBest, spec.FamilyEVES,
	} {
		if f == spec.FamilyEVES {
			out = append(out, spec.PredictorSpec{Family: f, BudgetKB: 8}, spec.PredictorSpec{Family: f, BudgetKB: 32})
		} else {
			out = append(out, spec.PredictorSpec{Family: f, EntriesPer: 256}, spec.PredictorSpec{Family: f, EntriesPer: 1024})
		}
	}
	return out
}()

// profileOrder returns every workload once in a seeded order that
// cycles through the behaviour profiles, so any prefix of it spreads
// evenly over them.
func (b *bench) profileOrder() []string {
	byProfile := make(map[string][]string)
	var profiles []string
	all := trace.Workloads()
	for _, w := range all {
		if _, ok := byProfile[w.Profile]; !ok {
			profiles = append(profiles, w.Profile)
		}
		byProfile[w.Profile] = append(byProfile[w.Profile], w.Name)
	}
	sort.Strings(profiles)
	for _, p := range profiles {
		names := byProfile[p]
		b.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	}
	out := make([]string, 0, len(all))
	for i := 0; len(out) < len(all); i++ {
		for _, p := range profiles {
			if names := byProfile[p]; i < len(names) {
				out = append(out, names[i])
			}
		}
	}
	return out
}

// serveMix generates the seeded job sequence of one round. In every
// block of eight jobs, one simulates a stream no earlier job used (the
// uploaded external trace first, then the workloads in seeded orders
// that cycle through the profiles, alternating the short and the long
// budget; the jobs over seen streams favour the first streams, so an
// unbalanced start would tilt the whole round), two repeat an earlier
// job exactly (answered from the result cache), and five run a
// predictor not yet run over a stream already seen, alternating short
// and long streams. The shares are exact: a stream's predictors are
// dealt from its own seeded permutation of mixSpecs, so only the
// repeats hit the result cache, and the budgets alternate, so the mix's
// cost does not drift with the seed. A round's streams outgrow the
// daemon's resident trace budget, so older recordings are evicted and
// reloaded from its disk cache.
func (b *bench) serveMix(n int, ext string, extInsts uint64) []spec.Sim {
	type mixStream struct {
		name  string
		insts uint64
		deck  []int // mixSpecs indices not yet dealt, dealt from the end
	}
	budgets := [2]uint64{b.scaledInsts(serveInstsShort), b.scaledInsts(serveInstsLong)}
	orders := [2][]string{b.profileOrder(), b.profileOrder()}
	fresh := []*mixStream{{name: ext, insts: extInsts}}
	for i := range orders[0] {
		for c := range orders {
			fresh = append(fresh, &mixStream{name: orders[c][i], insts: budgets[c]})
		}
	}
	var seen [2][]*mixStream
	class := func(s *mixStream) int {
		if s.insts > budgets[0] {
			return 1
		}
		return 0
	}
	deal := func(s *mixStream) spec.Sim {
		if len(s.deck) == 0 {
			s.deck = b.rng.Perm(len(mixSpecs))
		}
		p := mixSpecs[s.deck[len(s.deck)-1]]
		s.deck = s.deck[:len(s.deck)-1]
		return spec.Sim{Predictor: p, Workload: spec.WorkloadSpec{Name: s.name, Insts: s.insts}}
	}
	jobs := make([]spec.Sim, 0, n)
	seenJobs := 0
	for i := 0; i < n; i++ {
		switch {
		case i%8 == 0 && len(fresh) > 0:
			s := fresh[0]
			fresh = fresh[1:]
			seen[class(s)] = append(seen[class(s)], s)
			jobs = append(jobs, deal(s))
		case (i%8 == 1 || i%8 == 2) && i >= 4:
			jobs = append(jobs, jobs[b.rng.Intn(i-3)])
		default:
			c := seenJobs % 2
			seenJobs++
			if len(seen[c]) == 0 {
				c = 1 - c
			}
			// A seen stream with predictors left to deal; once every
			// one tried is exhausted, its deck refills and repeats begin.
			s := seen[c][b.rng.Intn(len(seen[c]))]
			for tries := 0; len(s.deck) == 0 && tries < len(seen[c]); tries++ {
				s = seen[c][b.rng.Intn(len(seen[c]))]
			}
			jobs = append(jobs, deal(s))
		}
	}
	return jobs
}

// jobRec is one job as the closed-loop client saw it.
type jobRec struct {
	idx      int
	code     int
	status   server.JobStatus
	submit   time.Time
	accepted time.Time
	done     time.Time
	query    time.Duration
	err      error
}

// daemon is one in-process lvpd behind a loopback HTTP server.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
}

func (d *daemon) close() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // the run is over; a slow drain only delays exit
}

func startDaemon(cfg server.Config) (*daemon, error) {
	cfg.Logger = quietLogger()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &daemon{srv, httptest.NewServer(srv.Handler())}, nil
}

// runServe drives serve-jobs: a durable in-process lvpd (WAL data
// directory, disk trace cache, 2 simulation workers, default resident
// trace budget) under two closed-loop clients. Each client submits the
// next job of the seeded mix, waits for the job's terminal SSE event,
// then issues one GET /v1/runs warehouse query. The timed region is a
// number of rounds, each the whole mix on a freshly set-up daemon, so
// every round does the same work however fast the program is; another
// round starts while at least half of one still fits in -seconds, so
// runs last -seconds on average.
func (b *bench) runServe() error {
	ctx := context.Background()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.par, MaxConnsPerHost: b.par}}
	defer client.CloseIdleConnections()

	// The external trace: a seeded synthetic workload exported as LVPX.
	all := trace.Workloads()
	extSrc := all[b.rng.Intn(len(all))]
	extInsts := b.scaledInsts(serveExtInsts)
	var lvpx bytes.Buffer
	if _, err := tracein.Encode(&lvpx, extSrc.Build(extInsts)); err != nil {
		return fmt.Errorf("encoding the external trace: %w", err)
	}

	// Set-up: boot the daemon on fresh directories and upload the
	// external trace. Its WAL and trace cache fsync and the host's speed
	// drifts, so set-ups vary: setup_s averages the middle half of the
	// set-ups, which are spread over the run, a few before each round.
	var setups, uploads []float64
	var ext string
	setUp := func(name string) (*daemon, error) {
		runtime.GC() // each set-up starts from the same heap
		dir := filepath.Join(b.work, name)
		t0 := time.Now()
		d, err := startDaemon(server.Config{
			Workers:       2,
			DataDir:       filepath.Join(dir, "data"),
			TraceCacheDir: filepath.Join(dir, "traces"),
		})
		if err != nil {
			return nil, err
		}
		tu := time.Now()
		var up server.WorkloadUpload
		code, err := b.do(ctx, client, "POST", d.ts.URL+"/v1/workloads", lvpx.Bytes(), &up)
		if err != nil || code != http.StatusCreated {
			d.close()
			return nil, fmt.Errorf("uploading the external trace: %d %v", code, err)
		}
		uploads = append(uploads, time.Since(tu).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
		b.check(ext == "" || up.Workload == ext, "upload named the external trace %s, earlier %s", up.Workload, ext)
		ext = up.Workload
		return d, nil
	}
	tearDown := func(d *daemon, name string) {
		d.close()
		_ = os.RemoveAll(filepath.Join(b.work, name))
	}
	clients := min(serveClients, b.par)

	// The rounds. A traced run instruments every other round, so
	// tracing.overhead_ratio compares the same work.
	rec := b.rec
	defer func() { b.rec = rec }()
	var mix []spec.Sim
	var first []*jobRec
	var lat, accept, queue, run, notify, query []float64
	var done, hits, rejected int
	var wall, tracedWall, plainWall []float64
	var deltas map[string]float64
	var jobsNS, baseNS time.Duration
	start := time.Now()
	for r := 0; r < serveMinRounds || time.Since(start).Seconds()*(float64(r)+0.5)/float64(r) <= b.seconds; r++ {
		for i := 0; i < serveSetupReps; i++ {
			name := fmt.Sprintf("setup-%d-%d", r, i)
			d, err := setUp(name)
			if err != nil {
				return err
			}
			tearDown(d, name)
		}
		if mix == nil {
			// The mix names the external trace by the address its
			// upload returned.
			mix = b.serveMix(b.scaled(serveRoundJobs, 24), ext, extInsts)
			b.report("workload serve-jobs: closed loop of %d clients over lvpd (2 workers, WAL, disk trace cache), rounds of %d jobs; external trace %s (%s, %d insts)",
				clients, len(mix), ext, extSrc.Name, extInsts)
		}
		name := fmt.Sprintf("round-%d", r)
		d, err := setUp(name)
		if err != nil {
			return err
		}
		instrumented := rec != nil && r%2 == 1
		if !instrumented {
			b.rec = nil
		}
		recs, secs, delta, err := b.serveRound(ctx, client, d, mix, clients)
		b.rec = rec
		if err != nil {
			tearDown(d, name)
			return err
		}
		j, bs := baselineTimes(d.srv.Tracer().Spans())
		jobsNS += j
		baseNS += bs
		tearDown(d, name)

		wall = append(wall, secs)
		if instrumented {
			tracedWall = append(tracedWall, secs)
		} else {
			plainWall = append(plainWall, secs)
		}
		deltas = addDeltas(deltas, delta)
		if r == 0 {
			first = recs
		}
		for _, jr := range recs {
			ok := jr.err == nil && jr.code != http.StatusTooManyRequests && jr.status.State == server.StateDone &&
				jr.status.Result != nil && jr.status.Result.Instructions == mix[jr.idx].Workload.Insts
			if jr.code == http.StatusTooManyRequests {
				rejected++
			}
			b.check(ok, "round %d job %d (%s): code %d state %q err %v", r, jr.idx, jr.status.ID, jr.code, jr.status.State, jr.err)
			if !ok {
				continue
			}
			if r > 0 {
				f := first[jr.idx]
				b.check(f.status.Result != nil && f.status.SpecHash == jr.status.SpecHash &&
					equalJSON(stripped(*f.status.Result), stripped(*jr.status.Result)),
					"round %d job %d: result differs from round 0", r, jr.idx)
			}
			done++
			lat = append(lat, jr.done.Sub(jr.submit).Seconds()*1e3)
			accept = append(accept, jr.accepted.Sub(jr.submit).Seconds()*1e3)
			query = append(query, jr.query.Seconds()*1e3)
			st := jr.status
			if st.CacheHit {
				hits++
				continue
			}
			if st.Started != nil && st.Finished != nil {
				queue = append(queue, st.Started.Sub(st.Created).Seconds()*1e3)
				run = append(run, st.Finished.Sub(*st.Started).Seconds()*1e3)
				notify = append(notify, jr.done.Sub(*st.Finished).Seconds()*1e3)
			}
		}
	}
	rounds := float64(len(wall))
	var total float64
	for _, w := range wall {
		total += w
	}
	b.setE2E("setup_s", "s", midMean(setups))
	b.setE2E("sim_mips", "Minst/s", deltas["lvpd_sim_instructions_total"]/1e6/total)
	b.setE2E("ops_per_s", "1/s", float64(done)/total)
	b.setE2E("op_ms_p50", "ms", quantile(lat, 0.5))
	b.setE2E("op_ms_p95", "ms", quantile(lat, 0.95))
	b.report("timed region %.2fs: %d rounds, %d jobs done (%d cache hits, %d rejected), jobs_per_s %.4g",
		total, len(wall), done, hits, rejected, float64(done)/total)
	b.report("job_ms_p50 %.4g ms (n=%d)  job_ms_p95 %.4g ms (n=%d)", quantile(lat, 0.5), len(lat), quantile(lat, 0.95), len(lat))
	b.report("query_ms_p50 %.4g ms (n=%d)  query_ms_p95 %.4g ms (n=%d)", quantile(query, 0.5), len(query), quantile(query, 0.95), len(query))
	b.report("per round: %.4g streams generated, %.4g memory hits, %.4g disk reloads",
		deltas[artGenerated]/rounds, deltas[artMemHits]/rounds, deltas[artDiskHits]/rounds)

	// Output checks: spec hashes, a seeded sample re-simulated
	// in-process, and the stats digest of the first round.
	acc := &layerAcc{}
	var digest []any
	served := make(map[string]servedRun)
	for _, jr := range first {
		if jr.status.Result == nil {
			continue
		}
		digest = append(digest, []any{jr.idx, jr.status.SpecHash, stripped(*jr.status.Result)})
		sim, hash, err := b.canonical(ctx, b.tracedAcc(acc), mix[jr.idx], serveDefaults)
		if b.check(err == nil && hash == jr.status.SpecHash, "job %d: canonical hash %s (%v), served %s", jr.idx, hash, err, jr.status.SpecHash) {
			served[hash] = servedRun{sim, server.JobRequest{Spec: &sim}.Label(sim), *jr.status.Result}
		}
	}
	streams, err := b.resimSample(ctx, acc, served)
	if err != nil {
		return err
	}
	b.report("failed_ratio %.4g (%d of %d operations)", ratio(b.failed, b.attempted), b.failed, b.attempted)
	b.checkDigest(digestOf(digest))

	if b.traced {
		b.reportLayerRuns(acc, acc)
		b.setArtifactCounts(deltas[artGenerated]/rounds, deltas[artMemHits]/rounds, deltas[artDiskHits]/rounds)
		b.standaloneReplays(ctx, streams, lvpx.Bytes())
		b.setLayer("tracing.overhead_ratio", "ratio", median(tracedWall)/median(plainWall))

		fsyncs := deltas["lvpd_wal_fsync_seconds_count"]
		b.report("layer server.accept_ms_p50 %.4g ms (n=%d)  server.accept_ms_p95 %.4g ms (n=%d)",
			quantile(accept, 0.5), len(accept), quantile(accept, 0.95), len(accept))
		b.report("layer server.run_ms_p50 %.4g ms (n=%d)  server.notify_ms_p50 %.4g ms (n=%d)",
			quantile(run, 0.5), len(run), quantile(notify, 0.5), len(notify))
		b.report("layer server.cache_hit_ratio %.4g (%d of %d)  server.rejected %d", ratio(int64(hits), int64(done)), hits, done, rejected)
		b.report("layer tenant.queue_ms_p50 %.4g ms (n=%d)  tenant.queue_ms_p95 %.4g ms (n=%d)",
			quantile(queue, 0.5), len(queue), quantile(queue, 0.95), len(queue))
		b.report("layer store.wal_fsync_ms_mean %.4g ms  store.wal_fsyncs %.4g per round  store.query_ms_p95 %.4g ms (n=%d)",
			1e3*deltas["lvpd_wal_fsync_seconds_sum"]/max(fsyncs, 1), fsyncs/rounds, quantile(query, 0.95), len(query))
		b.report("layer expt.baseline_sim_share %.4g", perUnit(int64(baseNS), uint64(jobsNS)))
		b.report("layer tracein.upload_s_median %.4g s (n=%d)", median(uploads), len(uploads))
	}
	return nil
}

// Counters of lvpd's trace artifact store, keyed as deltas.
const (
	artGenerated = "lvpd_trace_artifact_generated_total"
	artMemHits   = "lvpd_trace_artifact_hits_total/memory"
	artDiskHits  = "lvpd_trace_artifact_hits_total/disk"
)

// serveRound runs the whole mix once on d under the closed loop of
// clients. It returns every job as its client saw it, the round's wall
// time in seconds (first submission to last terminal event), and the
// deltas of the daemon's counters over the round.
func (b *bench) serveRound(ctx context.Context, client *http.Client, d *daemon, mix []spec.Sim, clients int) ([]*jobRec, float64, map[string]float64, error) {
	before, err := b.scrape(ctx, client, d.ts.URL)
	if err != nil {
		return nil, 0, nil, err
	}
	var next atomic.Int64
	recs := make([]*jobRec, len(mix))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(mix) {
					return
				}
				recs[i] = b.serveOne(ctx, client, d.ts.URL, i, mix[i])
			}
		}()
	}
	wg.Wait()
	end := start
	for _, r := range recs {
		if r.done.After(end) {
			end = r.done
		}
	}
	after, err := b.scrape(ctx, client, d.ts.URL)
	if err != nil {
		return nil, 0, nil, err
	}
	delta := func(name string, labels ...string) float64 {
		return sumMetric(after, name, labels...) - sumMetric(before, name, labels...)
	}
	deltas := map[string]float64{
		"lvpd_sim_instructions_total":  delta("lvpd_sim_instructions_total"),
		"lvpd_wal_fsync_seconds_count": delta("lvpd_wal_fsync_seconds_count"),
		"lvpd_wal_fsync_seconds_sum":   delta("lvpd_wal_fsync_seconds_sum"),
		artGenerated:                   delta(artGenerated),
		artMemHits:                     delta("lvpd_trace_artifact_hits_total", `source="memory"`),
		artDiskHits:                    delta("lvpd_trace_artifact_hits_total", `source="disk"`),
	}
	return recs, end.Sub(start).Seconds(), deltas, nil
}

// addDeltas adds the counter deltas of d into sum, which it allocates
// when nil.
func addDeltas(sum, d map[string]float64) map[string]float64 {
	if sum == nil {
		sum = make(map[string]float64)
	}
	for k, v := range d {
		sum[k] += v
	}
	return sum
}

// serveOne runs one closed-loop iteration: submit, wait for the
// terminal SSE event, query the warehouse.
func (b *bench) serveOne(ctx context.Context, client *http.Client, base string, idx int, sim spec.Sim) *jobRec {
	r := &jobRec{idx: idx, submit: time.Now()}
	ctx, done := b.span(ctx, "job", otrace.String("workload", sim.Workload.Name), otrace.String("predictor", string(sim.Predictor.Family)))
	defer done()
	body, err := json.Marshal(server.JobRequest{Spec: &sim})
	if err != nil {
		r.err = err
		return r
	}
	r.code, r.err = b.do(ctx, client, "POST", base+"/v1/jobs", body, &r.status)
	r.accepted = time.Now()
	if r.err != nil || (r.code != http.StatusOK && r.code != http.StatusAccepted) {
		if r.err == nil && r.code != http.StatusTooManyRequests {
			r.err = fmt.Errorf("submit: HTTP %d", r.code)
		}
		r.done = r.accepted
		return r
	}
	if !terminal(r.status.State) {
		r.err = b.awaitEvents(ctx, client, base+"/v1/jobs/"+r.status.ID+"/events", &r.status)
	}
	r.done = time.Now()
	q := url.Values{"workload": {sim.Workload.Name}, "limit": {"20"}}
	t0 := time.Now()
	var runs json.RawMessage
	code, err := b.do(ctx, client, "GET", base+"/v1/runs?"+q.Encode(), nil, &runs)
	r.query = time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/runs: HTTP %d", code)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	return r
}

func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCanceled
}

// awaitEvents follows a job's SSE stream until its terminal event and
// decodes that event's JobStatus into st.
func (b *bench) awaitEvents(ctx context.Context, client *http.Client, u string, st *server.JobStatus) error {
	ctx, done := b.span(ctx, "http GET events")
	defer done()
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return err
	}
	otrace.Inject(req)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && terminal(event):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), st); err != nil {
				return fmt.Errorf("terminal event: %w", err)
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream ended without a terminal event")
}

// do issues one HTTP call with a JSON body (or none) and decodes a JSON
// response into out when the status is 2xx.
func (b *bench) do(ctx context.Context, client *http.Client, method, u string, body []byte, out any) (int, error) {
	ctx, done := b.span(ctx, "http "+method+" "+routeOf(u))
	defer done()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, err
	}
	otrace.Inject(req)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, routeOf(u), err)
		}
	}
	return resp.StatusCode, nil
}

// routeOf names a URL's route for span names (ids and queries dropped).
func routeOf(u string) string {
	p, err := url.Parse(u)
	if err != nil {
		return u
	}
	parts := strings.Split(strings.Trim(p.Path, "/"), "/")
	if len(parts) > 2 {
		parts = parts[:2]
	}
	return "/" + strings.Join(parts, "/")
}

// scrape fetches a daemon's /metrics and flattens it to series → value,
// keyed `name{k="v",...}`.
func (b *bench) scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	ctx, done := b.span(ctx, "http GET /metrics")
	defer done()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := tsdb.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing %s/metrics: %w", base, err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, smp := range f.Samples {
			var lbl strings.Builder
			for i := 0; i+1 < len(smp.Labels); i += 2 {
				if i > 0 {
					lbl.WriteByte(',')
				}
				fmt.Fprintf(&lbl, "%s=%q", smp.Labels[i], smp.Labels[i+1])
			}
			out[smp.Name+"{"+lbl.String()+"}"] += smp.Value
		}
	}
	return out, nil
}

// baselineTimes returns how long a daemon's "job" spans lasted and
// how much of it its uncached "baseline" spans took: the daemon's own
// spans, read through Server.Tracer.
func baselineTimes(spans []*otrace.Span) (jobs, base time.Duration) {
	for _, s := range spans {
		switch s.Name {
		case "job":
			jobs += s.End.Sub(s.Start)
		case "baseline":
			for _, a := range s.Attrs {
				if a.Key == "cached" && a.Value == "false" {
					base += s.End.Sub(s.Start)
				}
			}
		}
	}
	return jobs, base
}

// servedRun is one distinct spec a daemon served: its canonical spec,
// the label responses echo, and the served result.
type servedRun struct {
	sim   spec.Sim
	label string
	res   server.RunResult
}

// resimSample re-simulates a seeded sample of the served distinct specs
// in-process — one per predictor family and machine width, plus one
// over the external trace when served — and checks each equals the
// served RunResult. It returns the recorded streams the re-simulations
// replayed, for the traced run's standalone layer replays.
func (b *bench) resimSample(ctx context.Context, acc *layerAcc, served map[string]servedRun) ([]stream, error) {
	hashes := make([]string, 0, len(served))
	for h := range served {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	groups := make(map[string][]string)
	var kinds []string
	for _, h := range hashes {
		sim := served[h].sim
		k := fmt.Sprintf("%s/%d", sim.Predictor.Family, sim.Machine.NumContexts())
		if trace.IsExternalName(sim.Workload.Name) {
			k = "external"
		}
		if _, ok := groups[k]; !ok {
			kinds = append(kinds, k)
		}
		groups[k] = append(groups[k], h)
	}
	sort.Strings(kinds)
	var wants []servedRun
	for _, k := range kinds {
		g := groups[k]
		wants = append(wants, served[g[b.rng.Intn(len(g))]])
	}

	// Record the sample's streams first, so the traced run can time the
	// recordings and replay them standalone.
	store, err := trace.NewArtifactStore("", 1<<40)
	if err != nil {
		return nil, err
	}
	var keys []streamKey
	seen := make(map[streamKey]bool)
	for _, w := range wants {
		for _, s := range w.sim.ContextStreams() {
			if k := (streamKey{s, w.sim.Workload.Insts}); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	before := heapInUse()
	streams, err := b.recordStreams(ctx, store, keys)
	if err != nil {
		return nil, err
	}
	b.setResident(before, heapInUse(), streams)

	lacc := b.tracedAcc(acc)
	b.parallel(len(wants), func(i int) {
		w := wants[i]
		got, err := b.resim(ctx, lacc, store, w.sim, w.label)
		b.check(err == nil && equalJSON(got, stripped(w.res)),
			"re-simulating %s/%s (%d contexts) in-process: %v\n got  %+v\n want %+v",
			w.sim.WorkloadLabel(), w.label, w.sim.Machine.NumContexts(), err, got, stripped(w.res))
	})
	b.report("re-simulated %d distinct specs in-process (%d streams)", len(wants), len(streams))
	return streams, nil
}

// equalJSON compares two values by their JSON encodings, the form the
// daemons serve them in.
func equalJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
