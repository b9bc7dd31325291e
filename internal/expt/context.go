// Package expt contains one runner per table and figure of the paper's
// evaluation (Tables IV-VI, Figures 2-12). Each runner simulates the
// workload pool under the relevant predictor configurations and renders
// the same rows/series the paper reports.
//
// Results are aggregated with the paper's conventions: arithmetic
// averages for rates and coverage, geometric averages for IPC-derived
// speedups (Section II-A).
package expt

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures an experiment context.
type Options struct {
	// Insts is the per-workload instruction budget (the paper uses
	// 100M-instruction simpoints; the default here is 100k, scaled for
	// quick runs — pass more via cmd/experiments -insts for tighter
	// aggregates).
	Insts uint64

	// Workloads restricts the pool (default: all 85).
	Workloads []string

	// Seed drives all predictor randomness.
	Seed uint64

	// Parallel is the worker count (default GOMAXPROCS).
	Parallel int

	// Traces, when non-nil, supplies recorded workload streams from a
	// content-addressed artifact store: each run replays a shared
	// recording instead of regenerating the stream, and replays engage
	// the pipeline's slice fast path. Nil keeps live generation.
	Traces *trace.ArtifactStore
}

// Context memoizes simulations and fans them out over a worker pool.
// It is safe for concurrent use.
//
// The memo holds every run a Context simulates from a spec alone —
// single- and multi-context baselines, and each (workload, machine,
// predictor) point a figure asks for — keyed by the canonical hash of
// the run's full spec.Sim at the context's budget and seed, the key
// lvpd's result cache and warehouse use. Each key is simulated at most
// once: concurrent callers wait for the in-flight run. Aborted runs are
// returned but never memoized, and runs handed an engine
// (RunEngineCfg*Ctx, RunSMT*Ctx) bypass the memo.
type Context struct {
	insts  uint64
	seed   uint64
	pool   []trace.Workload
	par    int
	traces *trace.ArtifactStore

	mu   sync.Mutex
	memo map[string]*memoEntry
}

// memoEntry is one spec's simulation. done closes when the run
// settles; ok reports, under the context's lock, that res holds a
// complete run. An aborted run leaves the memo before done closes, so
// its waiters simulate again.
type memoEntry struct {
	done chan struct{}
	ok   bool
	res  memoRun
}

// memoRun is one memoized simulation: the machine-wide run (with the
// per-context runs on a multi-context machine) and, for composite
// predictors, the composite's statistics.
type memoRun struct {
	SMTResult
	comp core.CompositeStats
}

// NewContext builds a context from opts. It panics on an unknown
// workload name; services handling untrusted input should use
// NewContextErr instead.
func NewContext(opts Options) *Context {
	c, err := NewContextErr(opts)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewContextErr builds a context from opts, reporting unknown workload
// names as an error instead of panicking.
func NewContextErr(opts Options) (*Context, error) {
	c := &Context{
		insts:  opts.Insts,
		seed:   opts.Seed,
		par:    opts.Parallel,
		traces: opts.Traces,
		memo:   make(map[string]*memoEntry),
	}
	if c.insts == 0 {
		c.insts = 100_000
	}
	if c.seed == 0 {
		c.seed = 0xC0FFEE
	}
	if c.par <= 0 {
		c.par = runtime.GOMAXPROCS(0)
	}
	if len(opts.Workloads) == 0 {
		c.pool = trace.Workloads()
	} else {
		for _, name := range opts.Workloads {
			w, ok := trace.ByName(name)
			if !ok {
				return nil, fmt.Errorf("expt: unknown workload %q", name)
			}
			c.pool = append(c.pool, w)
		}
	}
	return c, nil
}

// Insts returns the per-workload instruction budget.
func (c *Context) Insts() uint64 { return c.insts }

// Seed returns the context seed.
func (c *Context) Seed() uint64 { return c.seed }

// Pool returns the workload pool.
func (c *Context) Pool() []trace.Workload { return c.pool }

// canonical fills sim's budget and seed from the context and
// normalizes it, so it hashes like the spec of an lvpd job for the
// same run.
func (c *Context) canonical(sim spec.Sim) spec.Sim {
	sim.Workload.Insts = c.insts
	sim.Run.Seed = c.seed
	sim.Normalize(spec.Defaults{})
	return sim
}

// baselineOf returns the canonical spec of sim's baseline: the same
// machine and workload mix with no value predictor.
func (c *Context) baselineOf(sim spec.Sim) spec.Sim {
	sim.Predictor = spec.PredictorSpec{Family: spec.FamilyNone}
	return c.canonical(sim)
}

// memoized reports whether the canonical spec's run is in the memo.
func (c *Context) memoized(sim spec.Sim) bool {
	key := sim.CanonicalHash()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.memo[key]
	return e != nil && e.ok
}

// run returns the memoized run of a canonical spec, simulating it if no
// complete run is memoized and none is in flight. Only the caller that
// simulates publishes progress into pr (and rows, per context).
func (c *Context) run(ctx context.Context, sim spec.Sim, pr *cpu.Progress, rows []*cpu.Progress, every int) memoRun {
	key := sim.CanonicalHash()
	for {
		c.mu.Lock()
		e := c.memo[key]
		if e != nil && e.ok {
			c.mu.Unlock()
			return e.res
		}
		if e != nil {
			c.mu.Unlock()
			select {
			case <-e.done:
				continue // the run may have aborted; look again
			case <-ctx.Done():
				aborted := stats.Run{Workload: sim.WorkloadLabel(), Config: configLabel(sim.Predictor), Aborted: true}
				return memoRun{SMTResult: SMTResult{Merged: aborted}}
			}
		}
		e = &memoEntry{done: make(chan struct{})}
		c.memo[key] = e
		c.mu.Unlock()

		r := c.simulate(ctx, sim, pr, rows, every)
		c.mu.Lock()
		if r.Aborted() {
			delete(c.memo, key)
		} else {
			e.res, e.ok = r, true
		}
		c.mu.Unlock()
		close(e.done)
		return r
	}
}

// simulate runs a canonical spec with a fresh engine from the spec
// registry. A multi-context machine runs the spec's mix through the
// SMT path; a single-context one runs the workload's stream alone.
func (c *Context) simulate(ctx context.Context, sim spec.Sim, pr *cpu.Progress, rows []*cpu.Progress, every int) memoRun {
	eng, err := spec.NewEngine(sim.Predictor, c.insts, c.EngineSeedLabel(sim.WorkloadLabel()))
	if err != nil {
		// Unreachable for normalized specs; services validate
		// untrusted specs before reaching here.
		panic("expt: " + err.Error())
	}
	label := configLabel(sim.Predictor)
	var r memoRun
	if sim.Machine.NumContexts() > 1 {
		r.SMTResult = c.RunSMTProgressCtx(ctx, sim, label, eng, pr, rows, every)
	} else {
		r.Merged = c.runStream(ctx, sim.Workload.Name, label, eng, sim.Machine.Config(), pr, every)
	}
	if ce, ok := eng.(*cpu.CompositeEngine); ok {
		r.comp = ce.C.Stats()
	}
	return r
}

// configLabel is the config label of a memoized run: "base" for the
// no-VP baseline, the predictor family otherwise.
func configLabel(p spec.PredictorSpec) string {
	if p.Family == spec.FamilyNone {
		return "base"
	}
	return string(p.Family)
}

// HasBaselineMachine reports whether the named workload's baseline on
// machine m is already memoized (i.e. BaselineMachineCtx would return
// without simulating).
func (c *Context) HasBaselineMachine(name string, m spec.MachineSpec) bool {
	return c.memoized(c.baselineOf(spec.Sim{Machine: m, Workload: spec.WorkloadSpec{Name: name}}))
}

// BaselineMachineCtx simulates (or returns the memoized) no-VP run for
// w on the machine described by m. Concurrent callers for the same
// unmemoized pair wait for the in-flight run instead of recomputing it.
// Aborted runs (ctx cancelled mid-simulation) are returned to the
// caller but never memoized.
func (c *Context) BaselineMachineCtx(ctx context.Context, w trace.Workload, m spec.MachineSpec) stats.Run {
	return c.BaselineMachineProgressCtx(ctx, w, m, nil, 0)
}

// BaselineMachineProgressCtx is BaselineMachineCtx with a live progress
// slot: when this caller ends up simulating the baseline (memo miss,
// no other run in flight), the pipeline publishes a snapshot into pr
// every `every` instructions. Callers answered from the memo or from
// another caller's in-flight run observe no publications — the slot
// reports whatever it last held.
func (c *Context) BaselineMachineProgressCtx(ctx context.Context, w trace.Workload, m spec.MachineSpec, pr *cpu.Progress, every int) stats.Run {
	sim := c.baselineOf(spec.Sim{Machine: m, Workload: spec.WorkloadSpec{Name: w.Name}})
	return c.run(ctx, sim, pr, nil, every).Merged
}

// EngineSeed returns the per-workload engine seed derived from the
// context seed. Exposed so callers that need to keep the engine (e.g.
// to inspect per-component statistics after the run) can build it
// themselves.
func (c *Context) EngineSeed(w trace.Workload) uint64 {
	return c.EngineSeedLabel(w.Name)
}

// RunEngineCfgCtx simulates workload w with the supplied engine under
// ctx on core configuration cfg (e.g. one materialized from a
// spec.MachineSpec). The engine must be fresh (engines are stateful and
// single-threaded). Pipelines come from the package pool, so repeated
// runs reuse the hierarchy, branch predictors, and scheduling rings.
// The run is not memoized.
func (c *Context) RunEngineCfgCtx(ctx context.Context, w trace.Workload, config string, eng cpu.Engine, cfg cpu.Config) stats.Run {
	return c.RunEngineCfgProgressCtx(ctx, w, config, eng, cfg, nil, 0)
}

// RunEngineCfgProgressCtx is RunEngineCfgCtx with a live progress slot:
// the pipeline publishes a snapshot (run counters plus the engine's
// per-component telemetry) into pr every `every` instructions. Pass a
// nil pr for no probe; every <= 0 selects cpu.DefaultProgressInterval.
func (c *Context) RunEngineCfgProgressCtx(ctx context.Context, w trace.Workload, config string, eng cpu.Engine, cfg cpu.Config, pr *cpu.Progress, every int) stats.Run {
	return c.runStream(ctx, w.Name, config, eng, cfg, pr, every)
}

// runStream simulates one stream on a single-context pipeline.
func (c *Context) runStream(ctx context.Context, stream, config string, eng cpu.Engine, cfg cpu.Config, pr *cpu.Progress, every int) stats.Run {
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	if pr != nil {
		// Attach after Acquire: the pool's Reset detaches slots.
		p.SetProgress(pr, every)
	}
	return p.RunCtx(ctx, c.gen(stream), stream, config)
}

// gen returns the instruction source for one run of a stream: a cursor
// over the shared recorded artifact when the context has a trace store
// (repeat runs replay one recording instead of regenerating the
// stream), a fresh live generator otherwise. A store failure falls back
// to live generation — a trace cache must never fail a run. The stream
// name must resolve (callers run validated specs); unknown streams
// panic.
func (c *Context) gen(stream string) trace.Generator {
	if c.traces != nil {
		if cur, err := c.traces.Cursor(stream, c.insts); err == nil {
			return cur
		}
	}
	g, ok := trace.BuildStream(stream, c.insts)
	if !ok {
		panic("expt: unknown stream " + stream)
	}
	return g
}

// Runs simulates sim's predictor and machine on every pool workload in
// parallel and returns per-workload (run, baseline) pairs in pool
// order, the baseline on sim's machine. The pool supplies the
// workloads and the context the budget and seed; sim's workload and run
// sections are ignored. A multi-context machine runs each workload as a
// homogeneous mix, as lvpd does, and pairs its machine-wide runs. Every
// run comes from the memo, so figures that share a configuration
// simulate it once.
func (c *Context) Runs(sim spec.Sim) []Pair {
	out := make([]Pair, len(c.pool))
	c.forEach(func(i int, w trace.Workload) {
		one := sim
		one.Workload = spec.WorkloadSpec{Name: w.Name}
		base := c.run(context.Background(), c.baselineOf(one), nil, nil, 0)
		run := c.run(context.Background(), c.canonical(one), nil, nil, 0)
		out[i] = Pair{Workload: w.Name, Run: run.Merged, Base: base.Merged, Comp: run.comp}
	})
	return out
}

// Pair couples a configured run with its baseline.
type Pair struct {
	Workload string
	Run      stats.Run
	Base     stats.Run

	// Comp is the composite predictor's statistics over the run (zero
	// for other predictor families).
	Comp core.CompositeStats
}

// Speedup returns the pair's speedup percentage.
func (p Pair) Speedup() float64 { return stats.Speedup(p.Run, p.Base) }

// Aggregate summarizes a set of pairs with the paper's conventions.
type Aggregate struct {
	Speedup  float64 // geometric-mean IPC gain, percent
	Coverage float64 // arithmetic mean coverage, percent
	Accuracy float64 // arithmetic mean accuracy
}

// Summarize aggregates pairs. Pairs containing an aborted run (either
// side) are skipped: stats.Run documents that aborted runs cover an
// arbitrary prefix and must not be aggregated.
func Summarize(pairs []Pair) Aggregate {
	ratios := make([]float64, 0, len(pairs))
	var cov, acc float64
	var n float64
	for _, p := range pairs {
		if p.Run.Aborted || p.Base.Aborted {
			continue
		}
		if b := p.Base.IPC(); b > 0 {
			ratios = append(ratios, p.Run.IPC()/b)
		}
		cov += p.Run.Coverage()
		acc += p.Run.Accuracy()
		n++
	}
	if n == 0 {
		return Aggregate{}
	}
	return Aggregate{
		Speedup:  stats.GeoMeanSpeedup(ratios),
		Coverage: cov / n,
		Accuracy: acc / n,
	}
}

// summary runs predictor p on the Table III machine over the pool and
// aggregates the pairs.
func (c *Context) summary(p spec.PredictorSpec) Aggregate {
	return Summarize(c.Runs(spec.Sim{Predictor: p}))
}

// forEach fans f out over the pool with the context's parallelism.
func (c *Context) forEach(f func(i int, w trace.Workload)) {
	sem := make(chan struct{}, c.par)
	var wg sync.WaitGroup
	for i, w := range c.pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, w trace.Workload) {
			defer wg.Done()
			defer func() { <-sem }()
			f(i, w)
		}(i, w)
	}
	wg.Wait()
}

func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// The predictor points of the evaluation, spelled as specs. Engines
// come from the spec registry (internal/spec), which scales epoch-based
// machinery (M-AM, table fusion) to the context's run length.

// composite is a composite predictor with the given sizing and
// optimizations.
func composite(entries [core.NumComponents]int, am spec.AMMode, smart, fusion bool) spec.PredictorSpec {
	return spec.PredictorSpec{
		Family:        spec.FamilyComposite,
		Entries:       entries,
		AM:            am,
		SmartTraining: smart,
		Fusion:        fusion,
	}
}

// componentFamilies maps each component to its single-component
// predictor family.
var componentFamilies = [core.NumComponents]spec.Family{
	core.CompLVP: spec.FamilyLVP,
	core.CompSAP: spec.FamilySAP,
	core.CompCVP: spec.FamilyCVP,
	core.CompCAP: spec.FamilyCAP,
}

// single is one component predictor of the given size on its own
// (Figure 3's configurations).
func single(comp core.Component, entries int) spec.PredictorSpec {
	return spec.PredictorSpec{Family: componentFamilies[comp], EntriesPer: entries}
}

// bestComposite is the best-performing optimized composite used by Figures
// 10-12: PC-AM(64) throttling, heterogeneous sizing, and table fusion
// (the spec's "best" family). Smart training is evaluated separately
// (Figures 7-8) but is excluded here: under this substrate's phase
// structure it reduced performance (see EXPERIMENTS.md), and the
// paper's "maximum benefit" configuration is whichever optimization set
// wins.
func bestComposite(entries [core.NumComponents]int) spec.PredictorSpec {
	return spec.PredictorSpec{Family: spec.FamilyBest, Entries: entries}
}

// evesAt is EVES at the given storage budget; -1 is unbounded (0 would
// normalize to the 32KB default).
func evesAt(budgetKB int) spec.PredictorSpec {
	return spec.PredictorSpec{Family: spec.FamilyEVES, BudgetKB: budgetKB}
}

// CompositeStorageKB computes the storage of a composite configuration
// without building predictors for a run.
func CompositeStorageKB(entries [core.NumComponents]int) float64 {
	return spec.StorageKB(spec.PredictorSpec{Family: spec.FamilyComposite, Entries: entries})
}
