package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sizes of the sim workloads at -scale 1. The per-workload instruction
// budget is the evaluation context's default (expt.Options.Insts).
const (
	simPerProfile = 8 // sampled workloads per behaviour profile (6 profiles, 48 of 85 workloads)
	simMinPasses  = 4 // timed passes even when -seconds is short
	simSetupReps  = 5 // set-ups per run; setup_s is their median
)

// simTask is one simulation of a pass: a recorded stream under one
// predictor configuration.
type simTask struct {
	workload string
	config   string
	pred     spec.PredictorSpec
}

// runSim drives sim-vp (vp) or sim-base: the offline evaluation path.
// Set-up records each sampled stream once into a memory artifact store;
// the timed region replays the recordings in passes (every stream under
// every configuration), on GOMAXPROCS goroutines, until -seconds have
// elapsed. Each simulation is expt.Context.RunEngineCfgCtx over the
// store, the call cmd/experiments' runners make per workload.
func (b *bench) runSim(vp bool) error {
	ctx := context.Background()
	names := b.stratifiedSample(b.scaled(simPerProfile, 1))
	insts := b.scaledInsts(expt.NewContext(expt.Options{}).Insts())

	var presets []string
	if vp {
		presets = []string{"best-9.6KB", "eves-32KB"}
	}
	var tasks []simTask
	for _, n := range names {
		if !vp {
			tasks = append(tasks, simTask{n, "base", spec.PredictorSpec{Family: spec.FamilyNone}})
		}
		for _, p := range presets {
			sim, _ := spec.Preset(p)
			sim.Normalize(spec.Defaults{})
			tasks = append(tasks, simTask{n, p, sim.Predictor})
		}
	}

	// Set-up, repeated: record every stream once.
	keys := make([]streamKey, len(names))
	for i, n := range names {
		keys[i] = streamKey{n, insts}
	}
	var store *trace.ArtifactStore
	var streams []stream
	var setups []float64
	for i := 0; i < simSetupReps; i++ {
		store, streams = nil, nil
		before := heapInUse()
		t0 := time.Now()
		st, err := trace.NewArtifactStore("", uint64(len(names))*insts)
		if err != nil {
			return err
		}
		recs, err := b.recordStreams(ctx, st, keys)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.setResident(before, heapInUse(), recs)
		store, streams = st, recs
	}
	b.setE2E("setup_s", "s", median(setups))
	b.report("workload %s: %d streams x %d insts, %d simulations per pass, %d load goroutines",
		b.workload, len(names), insts, len(tasks), b.par)
	b.report("sample %v", names)

	// The evaluation context replays the store's recordings and derives
	// the engine seeds, as in cmd/experiments.
	sctx := expt.NewContext(expt.Options{Insts: insts, Workloads: names, Traces: store})
	pool := make(map[string]trace.Workload)
	seeds := make(map[string]uint64)
	for _, w := range sctx.Pool() {
		pool[w.Name] = w
		seeds[w.Name] = sctx.EngineSeed(w)
	}
	cfg := spec.MachineSpec{}.Config()

	before := store.Stats()
	var plainRuns uint64
	first := make([]stats.Run, len(tasks))
	var latMu sync.Mutex
	var lat []time.Duration
	var passMIPS, passOps []float64
	var tracedPass, plainPass []float64
	acc := &layerAcc{}
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	start := time.Now()
	for pass := 0; ; pass++ {
		// A traced run alternates instrumented and plain passes, so
		// tracing.overhead_ratio compares the same work.
		var pacc *layerAcc
		if b.traced && pass%2 == 1 {
			pacc = acc
		}
		results := make([]stats.Run, len(tasks))
		t0 := time.Now()
		b.parallel(len(tasks), func(i int) {
			t := tasks[i]
			eng, err := spec.NewEngine(t.pred, insts, seeds[t.workload])
			if err != nil {
				b.check(false, "engine %s: %v", t.config, err)
				return
			}
			ts := time.Now()
			if pacc == nil {
				results[i] = sctx.RunEngineCfgCtx(ctx, pool[t.workload], t.config, eng, cfg)
			} else {
				// Instrumented passes need the pipeline's hierarchy, so
				// they acquire it themselves over the same recording.
				sim := spec.Sim{Predictor: t.pred, Workload: spec.WorkloadSpec{Name: t.workload, Insts: insts}}
				b.canonical(ctx, pacc, sim, spec.Defaults{})
				cur, err := store.Cursor(t.workload, insts)
				if err != nil {
					b.check(false, "no recording of %s: %v", t.workload, err)
					return
				}
				ts = time.Now()
				results[i] = b.simulate(ctx, pacc, cfg, eng, layerOf(t.pred.Family), cur, t.workload, t.config)
			}
			d := time.Since(ts)
			latMu.Lock()
			lat = append(lat, d)
			latMu.Unlock()
		})
		secs := time.Since(t0).Seconds()
		var simulated uint64
		for i, r := range results {
			ok := r.Instructions == insts && !r.Aborted && (pass == 0 || r == first[i])
			b.check(ok, "pass %d: %s/%s simulated %d of %d instructions (aborted %v) or diverged from pass 0",
				pass, tasks[i].workload, tasks[i].config, r.Instructions, insts, r.Aborted)
			simulated += r.Instructions
		}
		if pass == 0 {
			copy(first, results)
		}
		passMIPS = append(passMIPS, float64(simulated)/1e6/secs)
		passOps = append(passOps, float64(len(tasks))/secs)
		if pacc != nil {
			tracedPass = append(tracedPass, secs)
		} else {
			plainPass = append(plainPass, secs)
			plainRuns += uint64(len(tasks))
		}
		if pass+1 >= simMinPasses && time.Now().After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	st := store.Stats()
	b.check(st.Generated == before.Generated, "%d streams generated live inside the timed region", st.Generated-before.Generated)
	// Every simulation replayed a resident recording: expt falls back to
	// live generation without counting it when the store fails.
	b.check(st.MemoryHits-before.MemoryHits >= plainRuns, "%d of %d simulations replayed a resident recording",
		st.MemoryHits-before.MemoryHits, plainRuns)

	b.setE2E("sim_mips", "Minst/s", median(passMIPS))
	b.setE2E("ops_per_s", "1/s", median(passOps))
	latMS := durationsMS(lat)
	b.setE2E("op_ms_p50", "ms", quantile(latMS, 0.5))
	b.setE2E("op_ms_p95", "ms", quantile(latMS, 0.95))
	b.report("timed region %.2fs: %d passes (sim_mips and ops_per_s are medians of per-pass rates)",
		elapsed.Seconds(), len(passMIPS))
	b.report("op_ms_p50 %.4g ms (n=%d)  op_ms_p95 %.4g ms (n=%d)",
		quantile(latMS, 0.5), len(latMS), quantile(latMS, 0.95), len(latMS))
	b.report("failed_ratio %.4g (%d of %d operations)", ratio(b.failed, b.attempted), b.failed, b.attempted)
	b.checkDigest(digestOf(first))

	if b.traced {
		engAcc := acc
		if !vp {
			// The timed region ran no predictor; time the composite and
			// EVES engines over the same recordings off the timed path.
			engAcc = &layerAcc{}
			b.parallel(len(streams), func(i int) {
				s := streams[i]
				for _, p := range []string{"best-9.6KB", "eves-32KB"} {
					sim, _ := spec.Preset(p)
					sim.Normalize(spec.Defaults{})
					eng, err := spec.NewEngine(sim.Predictor, insts, seeds[s.name])
					if err != nil {
						b.check(false, "engine %s: %v", p, err)
						continue
					}
					b.simulate(ctx, engAcc, cfg, eng, layerOf(sim.Predictor.Family), s.rep.Cursor(), s.name, p)
				}
			})
		}
		b.reportLayerRuns(acc, engAcc)
		if vp {
			b.report("layer engine_share %.4g (core and eves Probe/Train time / Pipeline.Run time, instrumented passes)",
				acc.engineShare())
		}
		b.setArtifactCounts(float64(st.Generated), float64(st.MemoryHits), float64(st.DiskHits))
		b.standaloneReplays(ctx, streams, nil)
		b.setLayer("tracing.overhead_ratio", "ratio", median(tracedPass)/median(plainPass))
	}
	runtime.KeepAlive(streams)
	return nil
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
