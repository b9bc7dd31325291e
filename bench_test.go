package repro

import (
	"fmt"
	"testing"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eves"
	"repro/internal/expt"
	"repro/internal/trace"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation, one testing.B benchmark per experiment. Benchmark runs
// use a reduced instruction budget and a stratified workload subsample
// so `go test -bench=.` completes in minutes; cmd/experiments exposes
// the same runners with full control over -insts and -sample.

const (
	benchInsts  = 30_000
	benchSample = 6
)

func benchWorkloads() []string {
	all := trace.Names()
	out := make([]string, 0, benchSample)
	step := float64(len(all)) / float64(benchSample)
	for i := 0; i < benchSample; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		ctx := expt.NewContext(expt.Options{
			Insts:     benchInsts,
			Workloads: benchWorkloads(),
			Seed:      0xC0FFEE,
		})
		res := e.Run(ctx)
		if len(res.Lines) == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

// BenchmarkTableIV regenerates the predictor parameter table.
func BenchmarkTableIV(b *testing.B) { benchExperiment(b, "tableiv") }

// BenchmarkTableV regenerates the Listing-1 training-latency table.
func BenchmarkTableV(b *testing.B) { benchExperiment(b, "tablev") }

// BenchmarkTableVI regenerates the heterogeneous sizing exploration.
func BenchmarkTableVI(b *testing.B) { benchExperiment(b, "tablevi") }

// BenchmarkFig2 regenerates the oracle load-pattern breakdown.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates the component size sweep.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates the prediction-overlap breakdown.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates composite vs best component.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the accuracy monitor comparison.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the smart-training overlap breakdown.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the smart-training speedup comparison.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the table-fusion speedup comparison.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the combined-benefit comparison.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the composite-vs-EVES comparison.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates the per-workload composite-vs-EVES table.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkAblations regenerates the mechanism-ablation extension.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// BenchmarkSharedPool regenerates the decoupled-value-array extension.
func BenchmarkSharedPool(b *testing.B) { benchExperiment(b, "sharedpool") }

// BenchmarkVPsec regenerates the fault-detection extension.
func BenchmarkVPsec(b *testing.B) { benchExperiment(b, "vpsec") }

// BenchmarkWindowSweep regenerates the window-size sensitivity study.
func BenchmarkWindowSweep(b *testing.B) { benchExperiment(b, "windowsweep") }

// ---------------------------------------------------------------------
// Microbenchmarks: raw throughput of the building blocks, useful when
// optimizing the simulator itself.

// The pipeline microbenchmarks measure the simulator's steady
// state, which is how every real consumer runs it: the experiment
// harness and the daemon both reuse pooled pipelines across many runs,
// so trace generation and predictor construction are one-time costs,
// not per-run costs. The trace is recorded once and replayed, the
// pipeline is acquired once and Reset per iteration, and the predictor
// state is cleared in place — the measured region is the simulation
// loop itself. CI runs these with -benchtime=1x as an allocation
// regression gate (see BENCH_hotpath.json for the history).

const benchPipelineInsts = 50_000

// BenchmarkPipelineBaseline measures simulated instructions per second
// of the core model without value prediction.
func BenchmarkPipelineBaseline(b *testing.B) {
	w, _ := trace.ByName("gcc2k")
	rep := trace.Record(w.Build(benchPipelineInsts), 0, 0)
	cfg := cpu.DefaultConfig()
	p := cpu.Acquire(cfg, nil)
	defer cpu.Release(p)
	b.SetBytes(benchPipelineInsts)
	b.ReportAllocs()
	// One warmup run so the simulated-memory clone happens before the
	// measurement: the gate asserts the steady state allocates nothing,
	// even at -benchtime=1x.
	p.Run(rep, "gcc2k", "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Rewind()
		p.Reset(cfg, nil)
		if r := p.Run(rep, "gcc2k", "bench"); r.Instructions != benchPipelineInsts {
			b.Fatalf("short run: %+v", r)
		}
	}
}

// BenchmarkPipelineComposite measures simulation throughput with the
// full composite predictor attached.
func BenchmarkPipelineComposite(b *testing.B) {
	w, _ := trace.ByName("gcc2k")
	rep := trace.Record(w.Build(benchPipelineInsts), 0, 0)
	comp := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewPCAM(64),
	})
	eng := cpu.NewCompositeEngine(comp)
	cfg := cpu.DefaultConfig()
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	b.SetBytes(benchPipelineInsts)
	b.ReportAllocs()
	p.Run(rep, "gcc2k", "bench") // warmup: clone the memory image outside the measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Rewind()
		comp.ResetState()
		p.Reset(cfg, eng)
		if r := p.Run(rep, "gcc2k", "bench"); r.Instructions != benchPipelineInsts {
			b.Fatalf("short run: %+v", r)
		}
	}
}

// BenchmarkPipelineEVES measures simulation throughput with EVES at
// its 32KB comparison point: the other half of the sim-vp benchmark
// workload, over the same pooled recording as the composite.
func BenchmarkPipelineEVES(b *testing.B) {
	w, _ := trace.ByName("gcc2k")
	rep := trace.Record(w.Build(benchPipelineInsts), 0, 0)
	eng := eves.New(eves.Config{BudgetKB: 32, Seed: 1})
	cfg := cpu.DefaultConfig()
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	b.SetBytes(benchPipelineInsts)
	b.ReportAllocs()
	p.Run(rep, "gcc2k", "bench") // warmup: clone the memory image outside the measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Rewind()
		eng.ResetState()
		p.Reset(cfg, eng)
		if r := p.Run(rep, "gcc2k", "bench"); r.Instructions != benchPipelineInsts {
			b.Fatalf("short run: %+v", r)
		}
	}
}

// BenchmarkPipelineProgress measures simulation throughput with the
// composite predictor AND the live progress probe attached at a tight
// cadence — the observability configuration lvpd runs jobs under. The
// -benchmem gate asserts the probe keeps the steady state at 0
// allocs/op (TestProgressProbeZeroAlloc in internal/cpu is the hard
// assertion of the same invariant).
func BenchmarkPipelineProgress(b *testing.B) {
	w, _ := trace.ByName("gcc2k")
	rep := trace.Record(w.Build(benchPipelineInsts), 0, 0)
	comp := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewMAMEpoch(10_000),
	})
	eng := cpu.NewCompositeEngine(comp)
	cfg := cpu.DefaultConfig()
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	var pr cpu.Progress
	b.SetBytes(benchPipelineInsts)
	b.ReportAllocs()
	p.Run(rep, "gcc2k", "bench") // warmup: clone the memory image outside the measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Rewind()
		comp.ResetState()
		p.Reset(cfg, eng)
		p.SetProgress(&pr, 4096)
		if r := p.Run(rep, "gcc2k", "bench"); r.Instructions != benchPipelineInsts {
			b.Fatalf("short run: %+v", r)
		}
	}
	if s, ok := pr.Load(); !ok || s.Instructions != benchPipelineInsts {
		b.Fatalf("probe published nothing useful: %+v ok=%v", s, ok)
	}
}

// BenchmarkPipelineSMT4 measures the 4-context SMT core in the same
// pooled steady state: four salted gcc2k streams recorded once and
// rewound, one pipeline acquired once and Reset per iteration, the
// composite engine shared across contexts and cleared in place. The
// total simulated instruction count matches the single-context
// pipeline benchmarks so ms/op is comparable, and the -benchmem gate
// asserts the multi-context path keeps the steady state at 0
// allocs/op just like the single-context one.
func BenchmarkPipelineSMT4(b *testing.B) {
	const nctx = 4
	const perCtx = benchPipelineInsts / nctx
	streams := make([]string, nctx)
	reps := make([]*trace.Replay, nctx)
	gens := make([]trace.Generator, nctx)
	for i := range streams {
		streams[i] = trace.StreamName("gcc2k", i)
		gen, ok := trace.BuildStream(streams[i], perCtx)
		if !ok {
			b.Fatalf("unknown stream %q", streams[i])
		}
		reps[i] = trace.Record(gen, 0, 0)
		gens[i] = reps[i]
	}
	comp := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewPCAM(64),
	})
	eng := cpu.NewCompositeEngine(comp)
	cfg := cpu.DefaultConfig()
	cfg.Contexts = nctx
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	b.SetBytes(benchPipelineInsts)
	b.ReportAllocs()
	p.RunSMT(gens, streams, "gcc2k x4", "bench") // warmup: clone the per-context memory images
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range reps {
			rep.Rewind()
		}
		comp.ResetState()
		p.Reset(cfg, eng)
		if r := p.RunSMT(gens, streams, "gcc2k x4", "bench"); r.Instructions != benchPipelineInsts {
			b.Fatalf("short run: %+v", r)
		}
	}
}

// TestReplayedPooledRunMatchesFresh guards the benchmark methodology:
// the steady-state path the pipeline benchmarks measure (recorded
// trace + pooled pipeline + predictor state cleared in place) must
// produce bit-identical results to the fresh-everything path, or the
// benchmarks would be timing a different simulation.
func TestReplayedPooledRunMatchesFresh(t *testing.T) {
	// Each maker returns a fresh engine and the function that clears
	// its predictor state in place.
	engines := map[string]func() (cpu.Engine, func()){
		"composite": func() (cpu.Engine, func()) {
			c := core.NewComposite(core.CompositeConfig{
				Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewPCAM(64),
			})
			return cpu.NewCompositeEngine(c), c.ResetState
		},
		"eves": func() (cpu.Engine, func()) {
			e := eves.New(eves.Config{BudgetKB: 32, Seed: 1})
			return e, e.ResetState
		},
	}
	w, _ := trace.ByName("gcc2k")
	const n = 20_000
	for name, mk := range engines {
		freshEng, _ := mk()
		fresh := cpu.New(cpu.DefaultConfig(), freshEng).Run(w.Build(n), "gcc2k", "bench")

		rep := trace.Record(w.Build(n), 0, 0)
		cfg := cpu.DefaultConfig()
		eng, reset := mk()
		p := cpu.Acquire(cfg, eng)
		for i := 0; i < 3; i++ {
			rep.Rewind()
			reset()
			p.Reset(cfg, eng)
			if got := p.Run(rep, "gcc2k", "bench"); got != fresh {
				t.Fatalf("%s: iteration %d diverged from the fresh run:\n got: %+v\nwant: %+v", name, i, got, fresh)
			}
		}
		cpu.Release(p)
	}
}

// BenchmarkBranchTAGE measures the TAGE conditional branch predictor
// alone: Predict then Update for every conditional branch of the
// 50k-instruction gcc2k recording, under the global history the
// pipeline hands it, from a reset predictor each iteration. The
// single-context pipeline benchmarks above rewind one recording, so
// from their second run (the warmup is the first) they replay its
// branch outcomes and no longer time TAGE; this benchmark keeps TAGE in
// the ledger. MB/s reads as millions of branches per second.
func BenchmarkBranchTAGE(b *testing.B) {
	type cond struct {
		pc, hist uint64
		taken    bool
	}
	w, _ := trace.ByName("gcc2k")
	rep := trace.Record(w.Build(benchPipelineInsts), 0, 0)
	var conds []cond
	var h branch.History
	var in trace.Inst
	for rep.Next(&in) {
		if !in.IsBranch() {
			continue
		}
		if in.Op == trace.OpBranch {
			conds = append(conds, cond{in.PC, h.Global, in.Taken})
		}
		h.Update(in.PC, in.Op != trace.OpBranch || in.Taken)
	}
	if len(conds) == 0 {
		b.Fatal("recording has no conditional branches")
	}
	tage := branch.NewTAGE(cpu.DefaultConfig().TAGE)
	b.SetBytes(int64(len(conds)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tage.Reset()
		for _, c := range conds {
			tage.Predict(c.pc, c.hist)
			tage.Update(c.pc, c.hist, c.taken)
		}
	}
}

// BenchmarkCompositeProbe measures the composite's per-load prediction
// cost.
func BenchmarkCompositeProbe(b *testing.B) {
	c := core.NewComposite(core.CompositeConfig{Entries: core.HomogeneousEntries(1024), Seed: 1})
	o := core.Outcome{PC: 0x40, Addr: 0x1000, Value: 7, Size: 8}
	for i := 0; i < 100; i++ {
		c.Train(o, nil, core.Validation{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk := c.Probe(core.Probe{PC: 0x40})
		_ = lk
	}
}

// BenchmarkEVESProbe measures EVES's per-load prediction cost.
func BenchmarkEVESProbe(b *testing.B) {
	e := eves.New(eves.Config{BudgetKB: 32, Seed: 1})
	o := core.Outcome{PC: 0x40, Value: 7}
	for i := 0; i < 200; i++ {
		rec, _, _ := e.Probe(core.Probe{PC: o.PC})
		e.Train(o, rec, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Probe(core.Probe{PC: 0x40})
	}
}

// BenchmarkWorkloadGen measures trace generation throughput.
func BenchmarkWorkloadGen(b *testing.B) {
	w, _ := trace.ByName("v8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen := w.Build(50_000)
		var in trace.Inst
		n := 0
		for gen.Next(&in) {
			n++
		}
		if n == 0 {
			b.Fatal("empty stream")
		}
	}
	b.SetBytes(50_000)
}

// TestBenchmarkIDsCoverRegistry pins the one-bench-per-experiment
// contract: every registered experiment has a benchmark above.
func TestBenchmarkIDsCoverRegistry(t *testing.T) {
	covered := map[string]bool{
		"tableiv": true, "tablev": true, "tablevi": true,
		"fig2": true, "fig3": true, "fig4": true, "fig5": true,
		"fig6": true, "fig7": true, "fig8": true, "fig9": true,
		"fig10": true, "fig11": true, "fig12": true,
		"ablations": true, "sharedpool": true, "vpsec": true,
		"windowsweep": true,
	}
	for _, e := range expt.Registry() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark", e.ID)
		}
	}
	if len(covered) != len(expt.Registry()) {
		t.Errorf("benchmark list (%d) out of sync with registry (%d)", len(covered), len(expt.Registry()))
	}
}

// Example of the registry's discoverability.
func ExampleRegistry() {
	for _, e := range expt.Registry()[:3] {
		fmt.Println(e.ID)
	}
	// Output:
	// tableiv
	// tablev
	// tablevi
}
