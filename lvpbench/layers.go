package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/mem"
	otrace "repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// Layer indices of engine timings.
const (
	layerCore = iota // composite families (LVP/SAP/CVP/CAP, AM, fusion)
	layerEVES
	numEngineLayers
)

// spanEvery samples engine calls for spans: every call is timed, but
// only one in spanEvery is also recorded as a span, so a traced run's
// span ring holds the pipeline-level structure instead of millions of
// probe calls.
const spanEvery = 4096

// engineTimes accumulates time spent inside an engine's Probe and Train.
type engineTimes struct {
	probeNS, trainNS int64
	probes, trains   uint64
}

func (t *engineTimes) add(o engineTimes) {
	t.probeNS += o.probeNS
	t.trainNS += o.trainNS
	t.probes += o.probes
	t.trains += o.trains
}

// timedEngine wraps a cpu.Engine, timing every Probe and Train call.
// It forwards calls unchanged, so simulated results stay bit-identical.
type timedEngine struct {
	inner cpu.Engine
	t     engineTimes
	b     *bench
	ctx   context.Context // parents the sampled spans
	layer string
}

func (e *timedEngine) Probe(p core.Probe) (uint64, core.Prediction, bool) {
	if e.t.probes%spanEvery == 0 {
		_, done := e.b.span(e.ctx, e.layer+".probe")
		defer done()
	}
	t0 := time.Now()
	rec, pred, used := e.inner.Probe(p)
	e.t.probeNS += int64(time.Since(t0))
	e.t.probes++
	return rec, pred, used
}

func (e *timedEngine) Train(o core.Outcome, rec uint64, resolve core.AddrResolver) {
	if e.t.trains%spanEvery == 0 {
		_, done := e.b.span(e.ctx, e.layer+".train")
		defer done()
	}
	t0 := time.Now()
	e.inner.Train(o, rec, resolve)
	e.t.trainNS += int64(time.Since(t0))
	e.t.trains++
}

func (e *timedEngine) Instret(n uint64) { e.inner.Instret(n) }

// layerAcc accumulates what traced simulations measured: pipeline run
// time and instructions, engine time per layer, run statistics, and the
// pipeline hierarchy's cache and TLB counts. Safe for concurrent use.
type layerAcc struct {
	mu        sync.Mutex
	runNS     int64
	runInsts  uint64
	eng       [numEngineLayers]engineTimes
	engInsts  [numEngineLayers]uint64
	engRuns   [numEngineLayers]stats.Run
	all       stats.Run
	l1d, l2   mem.CacheStats
	tlb       mem.CacheStats
	canonNS   int64
	canonical int
}

func (a *layerAcc) addRun(d time.Duration, r stats.Run, layer int, et engineTimes, h *mem.Hierarchy) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runNS += int64(d)
	a.runInsts += r.Instructions
	sumRun(&a.all, r)
	if layer >= 0 {
		a.eng[layer].add(et)
		a.engInsts[layer] += r.Instructions
		sumRun(&a.engRuns[layer], r)
	}
	if h != nil {
		addCache(&a.l1d, h.L1D.Stats())
		addCache(&a.l2, h.L2.Stats())
		addCache(&a.tlb, h.TLB.Stats())
	}
}

func (a *layerAcc) addCanonical(d time.Duration) {
	a.mu.Lock()
	a.canonNS += int64(d)
	a.canonical++
	a.mu.Unlock()
}

// sumRun adds r's counts, cycles included, into dst, so dst.IPC() is
// the aggregate IPC of the runs summed (stats.Accumulate instead takes
// the maximum cycle count, for contexts that share a machine).
func sumRun(dst *stats.Run, r stats.Run) {
	cycles := dst.Cycles + r.Cycles
	stats.Accumulate(dst, r)
	dst.Cycles = cycles
}

func addCache(dst *mem.CacheStats, s mem.CacheStats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
}

func missRatio(s mem.CacheStats) float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

func perKilo(n, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(insts)
}

func perUnit(ns int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// layerOf maps a predictor family to its engine layer (-1 = none).
func layerOf(f spec.Family) int {
	switch f {
	case spec.FamilyNone:
		return -1
	case spec.FamilyEVES:
		return layerEVES
	}
	return layerCore
}

var layerNames = [numEngineLayers]string{"core", "eves"}

// wrap returns the engine the pipeline should run: eng itself in an
// untraced run, a timing wrapper in a traced one.
func (b *bench) wrap(ctx context.Context, eng cpu.Engine, layer int) (cpu.Engine, *timedEngine) {
	if b.rec == nil || eng == nil || layer < 0 {
		return eng, nil
	}
	te := &timedEngine{inner: eng, b: b, ctx: ctx, layer: layerNames[layer]}
	return te, te
}

// simulate runs one instrumented single-context simulation of gen on a
// pooled pipeline: it wraps the engine, records a span around
// Pipeline.Run, and folds the layer measurements, the pipeline
// hierarchy's included, into acc. Untraced runs call expt instead.
func (b *bench) simulate(ctx context.Context, acc *layerAcc, cfg cpu.Config, eng cpu.Engine, layer int, gen trace.Generator, workload, config string) stats.Run {
	ctx, done := b.span(ctx, "cpu.run", otrace.String("workload", workload), otrace.String("config", config))
	defer done()
	run, te := b.wrap(ctx, eng, layer)
	p := cpu.Acquire(cfg, run)
	defer cpu.Release(p)
	t0 := time.Now()
	r := p.RunCtx(ctx, gen, workload, config)
	d := time.Since(t0)
	var et engineTimes
	if te != nil {
		et = te.t
	}
	acc.addRun(d, r, layer, et, p.Hierarchy())
	return r
}

// canonical times spec.Sim.Canonical, the call every daemon makes per
// job and point, and returns the canonical hash.
func (b *bench) canonical(ctx context.Context, acc *layerAcc, sim spec.Sim, d spec.Defaults) (spec.Sim, string, error) {
	_, done := b.span(ctx, "spec.canonical")
	t0 := time.Now()
	c, hash, err := sim.Canonical(d)
	el := time.Since(t0)
	done()
	if acc != nil {
		acc.addCanonical(el)
	}
	return c, hash, err
}

// engineShare returns the share of Pipeline.Run time spent inside
// engine Probe and Train calls.
func (a *layerAcc) engineShare() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var ns int64
	for _, t := range a.eng {
		ns += t.probeNS + t.trainNS
	}
	return perUnit(ns, uint64(a.runNS))
}

// reportLayerRuns sets the cpu, mem and spec per-layer metrics from the
// simulations folded into acc, and the core and eves ones from those
// folded into eng (which may be acc itself).
func (b *bench) reportLayerRuns(acc, eng *layerAcc) {
	acc.mu.Lock()
	defer acc.mu.Unlock()
	if eng != acc {
		eng.mu.Lock()
		defer eng.mu.Unlock()
	}
	var engNS int64
	for i := range acc.eng {
		engNS += acc.eng[i].probeNS + acc.eng[i].trainNS
	}
	b.setLayer("cpu.self_ns_per_inst", "ns", perUnit(acc.runNS-engNS, acc.runInsts))
	b.setLayer("cpu.ipc", "ratio", acc.all.IPC())
	b.setLayer("cpu.vp_flushes_pki", "1/kinst", perKilo(acc.all.VPFlushes, acc.all.Instructions))
	b.setLayer("cpu.branch_flushes_pki", "1/kinst", perKilo(acc.all.BranchFlushes, acc.all.Instructions))
	b.setLayer("cpu.memorder_flushes_pki", "1/kinst", perKilo(acc.all.MemOrderFlushes, acc.all.Instructions))
	c := eng.eng[layerCore]
	b.setLayer("core.probe_ns", "ns", perUnit(c.probeNS, c.probes))
	b.setLayer("core.train_ns", "ns", perUnit(c.trainNS, c.trains))
	b.setLayer("core.probes_pki", "1/kinst", perKilo(c.probes, eng.engInsts[layerCore]))
	b.setLayer("core.trains_pki", "1/kinst", perKilo(c.trains, eng.engInsts[layerCore]))
	b.setLayer("core.coverage", "%", eng.engRuns[layerCore].Coverage())
	b.setLayer("core.accuracy", "ratio", eng.engRuns[layerCore].Accuracy())
	e := eng.eng[layerEVES]
	b.setLayer("eves.probe_ns", "ns", perUnit(e.probeNS, e.probes))
	b.setLayer("eves.train_ns", "ns", perUnit(e.trainNS, e.trains))
	b.setLayer("eves.coverage", "%", eng.engRuns[layerEVES].Coverage())
	b.setLayer("eves.accuracy", "ratio", eng.engRuns[layerEVES].Accuracy())
	b.setLayer("mem.l1d_miss_ratio", "ratio", missRatio(acc.l1d))
	b.setLayer("mem.l2_miss_ratio", "ratio", missRatio(acc.l2))
	b.setLayer("mem.tlb_miss_ratio", "ratio", missRatio(acc.tlb))
	b.setLayer("spec.canonical_us", "us", perUnit(acc.canonNS, uint64(acc.canonical))/1e3)
}

// stream is one recorded instruction stream under its stream name.
type stream struct {
	name string
	rep  *trace.Replay
}

// streamKey names one stream at one instruction budget.
type streamKey struct {
	name  string
	insts uint64
}

// recordStreams records the streams into store, timing each recording
// (the workload's generator drained by trace.Record). The caller
// measures the heap they hold (see setResident).
func (b *bench) recordStreams(ctx context.Context, store *trace.ArtifactStore, keys []streamKey) ([]stream, error) {
	out := make([]stream, len(keys))
	var recNS int64
	var total uint64
	var mu sync.Mutex
	errs := make([]error, len(keys))
	b.parallel(len(keys), func(i int) {
		k := keys[i]
		_, done := b.span(ctx, "trace.record", otrace.String("stream", k.name))
		t0 := time.Now()
		rep, err := store.Cursor(k.name, k.insts)
		d := time.Since(t0)
		done()
		if err != nil {
			errs[i] = fmt.Errorf("recording %s: %w", k.name, err)
			return
		}
		out[i] = stream{k.name, rep}
		mu.Lock()
		recNS += int64(d)
		total += uint64(rep.Len())
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b.setLayer("trace.record_ns_per_inst", "ns", perUnit(recNS, total))
	return out, nil
}

// setResident reports the heap the recorded streams hold per recorded
// instruction, from live-heap readings taken before and after recording.
func (b *bench) setResident(before, after uint64, streams []stream) {
	var total uint64
	for _, s := range streams {
		total += uint64(s.rep.Len())
	}
	b.setLayer("trace.resident_bytes_per_inst", "B", perUnit(int64(after)-int64(before), total))
}

// setArtifactCounts reports how the artifact stores serving the runs
// satisfied them.
func (b *bench) setArtifactCounts(generated, memHits, diskHits float64) {
	b.setLayer("trace.artifact_generated", "count", generated)
	b.setLayer("trace.artifact_mem_hits", "count", memHits)
	b.setLayer("trace.artifact_disk_hits", "count", diskHits)
}

// parallel runs fn(0..n-1) on b.par goroutines and waits for them.
func (b *bench) parallel(n int, fn func(i int)) {
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < b.par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// standaloneReplays measures the layers the pipeline owns on their own,
// over the recorded streams: a Replay.Next pass, TAGE and the
// memory hierarchy driven by the recorded branches and accesses, an
// artifact codec round trip, and LVPX conversion of lvpx (encoded from
// the first stream when nil). Traced runs only, after the timed
// region, so they never perturb end-to-end numbers.
func (b *bench) standaloneReplays(ctx context.Context, streams []stream, lvpx []byte) {
	ctx, done := b.span(ctx, "standalone")
	defer done()
	var insts uint64
	for _, s := range streams {
		insts += uint64(s.rep.Len())
	}

	// One Replay.Next pass.
	_, fin := b.span(ctx, "trace.replay")
	t0 := time.Now()
	var sink uint64
	for _, s := range streams {
		cur := s.rep.Cursor()
		var in trace.Inst
		for cur.Next(&in) {
			sink += in.PC
		}
	}
	b.setLayer("trace.replay_ns_per_inst", "ns", perUnit(int64(time.Since(t0)), insts))
	fin()
	_ = sink

	b.branchReplay(ctx, streams, insts)
	b.memReplay(ctx, streams)
	b.artifactRoundTrip(ctx, streams, insts)

	// LVPX conversion.
	if lvpx == nil && len(streams) > 0 {
		var buf bytes.Buffer
		if _, err := tracein.Encode(&buf, streams[0].rep.Cursor()); err != nil {
			b.check(false, "encoding %s as LVPX: %v", streams[0].name, err)
		}
		lvpx = buf.Bytes()
	}
	if lvpx != nil {
		_, fin := b.span(ctx, "tracein.convert")
		t0 := time.Now()
		_, rep, info, err := tracein.ConvertBytes(lvpx, 0)
		d := time.Since(t0)
		fin()
		if b.check(err == nil, "converting LVPX: %v", err) {
			b.check(uint64(rep.Len()) == info.Insts, "LVPX conversion yielded %d of %d instructions", rep.Len(), info.Insts)
			b.setLayer("tracein.convert_ns_per_inst", "ns", perUnit(int64(d), info.Insts))
		}
	}
}

// branchReplay drives a fresh TAGE predictor with each stream's
// recorded conditional branches, updating the global history the way
// the front end does. (ITTAGE is not replayed: no synthetic workload
// emits indirect branches, so it does no work in any workload.)
func (b *bench) branchReplay(ctx context.Context, streams []stream, insts uint64) {
	_, fin := b.span(ctx, "branch.replay")
	defer fin()
	type cond struct {
		pc, hist uint64
		taken    bool
	}
	tage := branch.NewTAGE(cpu.DefaultConfig().TAGE)
	var ns int64
	var n, miss uint64
	for _, s := range streams {
		var conds []cond
		var h branch.History
		cur := s.rep.Cursor()
		var in trace.Inst
		for cur.Next(&in) {
			switch in.Op {
			case trace.OpBranch:
				conds = append(conds, cond{in.PC, h.Global, in.Taken})
				h.Update(in.PC, in.Taken)
			case trace.OpJump, trace.OpCall, trace.OpRet, trace.OpIndirect:
				h.Update(in.PC, true)
			}
		}
		tage.Reset()
		t0 := time.Now()
		for _, c := range conds {
			if tage.Predict(c.pc, c.hist) != c.taken {
				miss++
			}
			tage.Update(c.pc, c.hist, c.taken)
		}
		ns += int64(time.Since(t0))
		n += uint64(len(conds))
	}
	b.setLayer("branch.tage_ns", "ns", perUnit(ns, n))
	b.setLayer("branch.mispredicts_pki", "1/kinst", perKilo(miss, insts))
}

// memReplay drives a fresh Table III hierarchy with each stream's
// recorded loads and stores.
func (b *bench) memReplay(ctx context.Context, streams []stream) {
	_, fin := b.span(ctx, "mem.replay")
	defer fin()
	type access struct{ pc, addr uint64 }
	h := mem.NewHierarchy(cpu.DefaultConfig().Hierarchy)
	var ns int64
	var n uint64
	for _, s := range streams {
		var acc []access
		cur := s.rep.Cursor()
		var in trace.Inst
		for cur.Next(&in) {
			if in.Op == trace.OpLoad || in.Op == trace.OpStore {
				acc = append(acc, access{in.PC, in.Addr})
			}
		}
		h.Reset()
		t0 := time.Now()
		for _, a := range acc {
			h.DataAccess(a.pc, a.addr)
		}
		ns += int64(time.Since(t0))
		n += uint64(len(acc))
	}
	b.setLayer("mem.data_access_ns", "ns", perUnit(ns, n))
}

// artifactRoundTrip encodes every stream with WriteArtifact, decodes it
// with ReadArtifact, and checks the decoded stream is identical.
func (b *bench) artifactRoundTrip(ctx context.Context, streams []stream, insts uint64) {
	var encNS, decNS int64
	var size int
	for _, s := range streams {
		var buf bytes.Buffer
		_, fin := b.span(ctx, "trace.artifact_encode", otrace.String("stream", s.name))
		t0 := time.Now()
		_, err := trace.WriteArtifact(&buf, s.name, uint64(s.rep.Len()), s.rep.Cursor())
		encNS += int64(time.Since(t0))
		fin()
		if !b.check(err == nil, "encoding artifact %s: %v", s.name, err) {
			continue
		}
		size += buf.Len()
		_, fin = b.span(ctx, "trace.artifact_decode", otrace.String("stream", s.name))
		t0 = time.Now()
		name, n, rep, err := trace.ReadArtifact(bytes.NewReader(buf.Bytes()))
		decNS += int64(time.Since(t0))
		fin()
		if !b.check(err == nil, "decoding artifact %s: %v", s.name, err) {
			continue
		}
		b.check(name == s.name && n == uint64(s.rep.Len()) && sameInsts(rep, s.rep),
			"artifact round trip of %s changed the stream", s.name)
	}
	b.setLayer("trace.artifact_encode_ns_per_inst", "ns", perUnit(encNS, insts))
	b.setLayer("trace.artifact_decode_ns_per_inst", "ns", perUnit(decNS, insts))
	b.setLayer("trace.artifact_bytes_per_inst", "B", perUnit(int64(size), insts))
}

func sameInsts(a, b *trace.Replay) bool {
	x, y := a.Cursor().Remaining(), b.Cursor().Remaining()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// resim re-simulates one served spec in-process and returns the
// RunResult a daemon would serve for it, minus the per-job throughput
// fields. It makes the expt calls lvpd makes, over recordings from
// store; a traced run with a non-nil acc runs single-context specs
// through simulate instead, to measure their layers.
func (b *bench) resim(ctx context.Context, acc *layerAcc, store *trace.ArtifactStore, sim spec.Sim, label string) (server.RunResult, error) {
	ctx, done := b.span(ctx, "resim", otrace.String("workload", sim.WorkloadLabel()), otrace.String("predictor", label))
	defer done()
	insts := sim.Workload.Insts
	sctx, err := expt.NewContextErr(expt.Options{Insts: insts, Seed: sim.Run.Seed, Traces: store})
	if err != nil {
		return server.RunResult{}, err
	}
	cfg := sim.Machine.Config()
	layer := layerOf(sim.Predictor.Family)
	var res server.RunResult
	if sim.Machine.NumContexts() > 1 {
		base := sctx.SMTBaselineCtx(ctx, sim)
		if sim.Predictor.Family == spec.FamilyNone {
			res = server.NewSMTRunResult(base, base, sim.ContextStreams(), nil)
		} else {
			eng, err := spec.NewEngine(sim.Predictor, insts, sctx.EngineSeedLabel(sim.WorkloadLabel()))
			if err != nil {
				return res, err
			}
			rctx, fin := b.span(ctx, "cpu.run_smt", otrace.String("workload", sim.WorkloadLabel()))
			run, te := b.wrap(rctx, eng, layer)
			t0 := time.Now()
			r := sctx.RunSMTCtx(rctx, sim, label, run)
			d := time.Since(t0)
			fin()
			if acc != nil {
				var et engineTimes
				if te != nil {
					et = te.t
				}
				acc.addRun(d, r.Merged, layer, et, nil)
			}
			res = server.NewSMTRunResult(r, base, sim.ContextStreams(), server.CompositeFromEngine(eng))
		}
	} else {
		w, ok := trace.ByName(sim.Workload.Name)
		if !ok {
			return res, fmt.Errorf("unknown workload %q", sim.Workload.Name)
		}
		rep, err := store.Cursor(w.Name, insts)
		if err != nil {
			return res, err
		}
		var base stats.Run
		if acc == nil {
			base = sctx.BaselineMachineCtx(ctx, w, sim.Machine)
		} else {
			base = b.simulate(ctx, acc, cfg, nil, -1, rep, w.Name, "base")
		}
		if sim.Predictor.Family == spec.FamilyNone {
			res = server.NewRunResult(base, base, nil)
		} else {
			eng, err := spec.NewEngine(sim.Predictor, insts, sctx.EngineSeed(w))
			if err != nil {
				return res, err
			}
			var run stats.Run
			if acc == nil {
				run = sctx.RunEngineCfgCtx(ctx, w, label, eng, cfg)
			} else {
				run = b.simulate(ctx, acc, cfg, eng, layer, rep.Cursor(), w.Name, label)
			}
			res = server.NewRunResult(run, base, server.CompositeFromEngine(eng))
		}
	}
	res.Predictor = label
	if res.StorageKB == 0 {
		res.StorageKB = spec.StorageKB(sim.Predictor)
	}
	return stripped(res), nil
}

// stripped clears the per-job throughput fields of a RunResult, which
// depend on timing and on which job happened to simulate a baseline.
func stripped(r server.RunResult) server.RunResult {
	r.SimInstructions = 0
	r.SimMIPS = 0
	return r
}
