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

// Context caches baseline runs and fans simulation jobs out over a
// worker pool. It is safe for concurrent use.
type Context struct {
	insts  uint64
	seed   uint64
	pool   []trace.Workload
	par    int
	traces *trace.ArtifactStore

	mu           sync.Mutex
	baselines    map[string]stats.Run
	smtBaselines map[string]SMTResult
	inflight     map[string]chan struct{}
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
	c.baselines = make(map[string]stats.Run)
	c.smtBaselines = make(map[string]SMTResult)
	c.inflight = make(map[string]chan struct{})
	return c, nil
}

// Insts returns the per-workload instruction budget.
func (c *Context) Insts() uint64 { return c.insts }

// Seed returns the context seed.
func (c *Context) Seed() uint64 { return c.seed }

// Pool returns the workload pool.
func (c *Context) Pool() []trace.Workload { return c.pool }

// Baseline simulates (or returns the cached) no-VP run for w.
func (c *Context) Baseline(w trace.Workload) stats.Run {
	return c.BaselineCtx(context.Background(), w)
}

// HasBaseline reports whether the named workload's Table III baseline
// is already cached (i.e. BaselineCtx would return without simulating).
func (c *Context) HasBaseline(name string) bool {
	return c.HasBaselineMachine(name, spec.MachineSpec{})
}

// HasBaselineMachine reports whether the named workload's baseline on
// machine m is already cached.
func (c *Context) HasBaselineMachine(name string, m spec.MachineSpec) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.baselines[baselineKey(name, m)]
	return ok
}

// baselineKey identifies a baseline run: the workload name, suffixed
// with the machine's canonical hash when it deviates from Table III.
func baselineKey(name string, m spec.MachineSpec) string {
	if h := m.Hash(); h != "" {
		return name + "@" + h
	}
	return name
}

// BaselineCtx simulates (or returns the cached) no-VP run for w on the
// Table III machine.
func (c *Context) BaselineCtx(ctx context.Context, w trace.Workload) stats.Run {
	return c.BaselineMachineCtx(ctx, w, spec.MachineSpec{})
}

// BaselineMachineCtx simulates (or returns the cached) no-VP run for w
// on the machine described by m. The baseline for each (workload,
// machine) pair is simulated at most once: concurrent callers for the
// same uncached pair wait for the in-flight run instead of recomputing
// it. Aborted runs (ctx cancelled mid-simulation) are returned to the
// caller but never cached.
func (c *Context) BaselineMachineCtx(ctx context.Context, w trace.Workload, m spec.MachineSpec) stats.Run {
	return c.BaselineMachineProgressCtx(ctx, w, m, nil, 0)
}

// BaselineMachineProgressCtx is BaselineMachineCtx with a live progress
// slot: when this caller ends up simulating the baseline (cache miss,
// no other run in flight), the pipeline publishes a snapshot into pr
// every `every` instructions. Callers answered from the cache or from
// another caller's in-flight run observe no publications — the slot
// reports whatever it last held.
func (c *Context) BaselineMachineProgressCtx(ctx context.Context, w trace.Workload, m spec.MachineSpec, pr *cpu.Progress, every int) stats.Run {
	key := baselineKey(w.Name, m)
	for {
		c.mu.Lock()
		if r, ok := c.baselines[key]; ok {
			c.mu.Unlock()
			return r
		}
		if ch, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-ch:
				continue // re-check the cache; the run may have aborted
			case <-ctx.Done():
				return stats.Run{Workload: w.Name, Config: "base", Aborted: true}
			}
		}
		ch := make(chan struct{})
		c.inflight[key] = ch
		c.mu.Unlock()

		p := cpu.Acquire(m.Config(), nil)
		if pr != nil {
			// Attach after Acquire: the pool's Reset detaches slots.
			p.SetProgress(pr, every)
		}
		r := p.RunCtx(ctx, c.gen(w), w.Name, "base")
		cpu.Release(p)
		c.mu.Lock()
		delete(c.inflight, key)
		if !r.Aborted {
			c.baselines[key] = r
		}
		c.mu.Unlock()
		close(ch)
		return r
	}
}

// EngineFactory builds a fresh engine per run (engines are stateful and
// single-threaded).
type EngineFactory func(workloadSeed uint64) cpu.Engine

// RunOneCtx simulates workload w with a fresh engine under ctx;
// cancellation aborts the run within one check interval.
func (c *Context) RunOneCtx(ctx context.Context, w trace.Workload, config string, mk EngineFactory) stats.Run {
	return c.RunEngineCtx(ctx, w, config, mk(c.EngineSeed(w)))
}

// EngineSeed returns the per-workload engine seed derived from the
// context seed — the seed RunOneCtx hands to its factory. Exposed so
// callers that need to keep the engine (e.g. to inspect per-component
// statistics after the run) can build it themselves.
func (c *Context) EngineSeed(w trace.Workload) uint64 {
	return core.SplitMix64(c.seed ^ hashName(w.Name))
}

// RunEngineCtx simulates workload w with the supplied engine under ctx
// on the Table III machine. The engine must be fresh (engines are
// stateful and single-threaded). Pipelines come from the package pool,
// so repeated runs reuse the hierarchy, branch predictors, and
// scheduling rings.
func (c *Context) RunEngineCtx(ctx context.Context, w trace.Workload, config string, eng cpu.Engine) stats.Run {
	return c.RunEngineCfgCtx(ctx, w, config, eng, cpu.DefaultConfig())
}

// RunEngineCfgCtx is RunEngineCtx with an explicit core configuration
// (e.g. one materialized from a spec.MachineSpec).
func (c *Context) RunEngineCfgCtx(ctx context.Context, w trace.Workload, config string, eng cpu.Engine, cfg cpu.Config) stats.Run {
	return c.RunEngineCfgProgressCtx(ctx, w, config, eng, cfg, nil, 0)
}

// RunEngineCfgProgressCtx is RunEngineCfgCtx with a live progress slot:
// the pipeline publishes a snapshot (run counters plus the engine's
// per-component telemetry) into pr every `every` instructions. Pass a
// nil pr for no probe; every <= 0 selects cpu.DefaultProgressInterval.
func (c *Context) RunEngineCfgProgressCtx(ctx context.Context, w trace.Workload, config string, eng cpu.Engine, cfg cpu.Config, pr *cpu.Progress, every int) stats.Run {
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	if pr != nil {
		// Attach after Acquire: the pool's Reset detaches slots.
		p.SetProgress(pr, every)
	}
	return p.RunCtx(ctx, c.gen(w), w.Name, config)
}

// gen returns the instruction source for one run of w: a cursor over
// the shared recorded artifact when the context has a trace store
// (repeat runs replay one recording instead of regenerating the
// stream), a fresh live generator otherwise. A store failure falls
// back to live generation — a trace cache must never fail a run.
func (c *Context) gen(w trace.Workload) trace.Generator {
	if c.traces != nil {
		if cur, err := c.traces.Cursor(w.Name, c.insts); err == nil {
			return cur
		}
	}
	return w.Build(c.insts)
}

// PerWorkload runs the engine configuration on every pool workload in
// parallel and returns per-workload (run, baseline) pairs in pool
// order.
func (c *Context) PerWorkload(config string, mk EngineFactory) []Pair {
	return c.PerWorkloadCtx(context.Background(), config, mk)
}

// PerWorkloadCtx is PerWorkload under a context: cancelling ctx aborts
// the in-flight simulations and marks their pairs' runs Aborted.
func (c *Context) PerWorkloadCtx(ctx context.Context, config string, mk EngineFactory) []Pair {
	out := make([]Pair, len(c.pool))
	c.forEach(func(i int, w trace.Workload) {
		base := c.BaselineCtx(ctx, w)
		run := c.RunOneCtx(ctx, w, config, mk)
		out[i] = Pair{Workload: w.Name, Run: run, Base: base}
	})
	return out
}

// Pair couples a configured run with its baseline.
type Pair struct {
	Workload string
	Run      stats.Run
	Base     stats.Run
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

// AvgSpeedup runs a configuration over the pool and returns the
// aggregate speedup.
func (c *Context) AvgSpeedup(config string, mk EngineFactory) float64 {
	return Summarize(c.PerWorkload(config, mk)).Speedup
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

// Engine factories used across experiments. All of them delegate to
// the spec registry (internal/spec), the single place that maps
// predictor descriptions to engines — epoch-based machinery (M-AM,
// table fusion) is scaled to the context's run length there.

// Factory builds an engine factory for a normalized predictor spec.
// It is the one bridge from declarative specs to runnable engines; the
// convenience factories below are thin wrappers over it.
func (c *Context) Factory(p spec.PredictorSpec) EngineFactory {
	return func(seed uint64) cpu.Engine {
		eng, err := spec.NewEngine(p, c.insts, seed)
		if err != nil {
			// Unreachable for specs built by the wrappers below;
			// services validate untrusted specs before reaching here.
			panic("expt: " + err.Error())
		}
		return eng
	}
}

// CompositeFactory builds a composite engine factory (AM/fusion epochs
// scaled to the context's run length).
func (c *Context) CompositeFactory(entries [core.NumComponents]int, am spec.AMMode, smart, fusion bool) EngineFactory {
	return c.Factory(spec.PredictorSpec{
		Family:        spec.FamilyComposite,
		Entries:       entries,
		AM:            am,
		SmartTraining: smart,
		Fusion:        fusion,
	})
}

// SingleFactory builds an engine with one component predictor of the
// given size (Figure 3's configurations).
func (c *Context) SingleFactory(comp core.Component, entries int) EngineFactory {
	var e [core.NumComponents]int
	e[comp] = entries
	return c.CompositeFactory(e, spec.AMNone, false, false)
}

// EVESFactory builds an EVES engine with the given budget (0 =
// infinite).
func EVESFactory(budgetKB int) EngineFactory {
	return func(seed uint64) cpu.Engine {
		// BudgetKB passes through un-normalized, so 0 keeps its legacy
		// "infinite" meaning here (spec.Normalize would read 0 as "use
		// the 32KB default").
		eng, err := spec.NewEngine(spec.PredictorSpec{Family: spec.FamilyEVES, BudgetKB: budgetKB}, 0, seed)
		if err != nil {
			panic("expt: " + err.Error())
		}
		return eng
	}
}

// BestComposite is the best-performing optimized composite used by
// Figures 10-12: PC-AM(64) throttling, heterogeneous sizing, and table
// fusion. Smart training is evaluated separately (Figures 7-8) but is
// excluded here: under this substrate's phase structure it reduced
// performance (see EXPERIMENTS.md), and the paper's "maximum benefit"
// configuration is whichever optimization set wins.
func (c *Context) BestComposite(entries [core.NumComponents]int) EngineFactory {
	return c.CompositeFactory(entries, spec.AMPC, false, true)
}

// CompositeStorageKB computes the storage of a composite configuration
// without building predictors for a run.
func CompositeStorageKB(entries [core.NumComponents]int) float64 {
	return spec.StorageKB(spec.PredictorSpec{Family: spec.FamilyComposite, Entries: entries})
}

// RunSim runs a full normalized spec — predictor and machine — over
// the pool in parallel and returns per-workload pairs against the
// spec's machine's own baseline. The instruction budget and seed come
// from the context, not the spec's workload/run sections; config
// labels the runs.
func (c *Context) RunSim(sim spec.Sim, config string) []Pair {
	mk := c.Factory(sim.Predictor)
	cfg := sim.Machine.Config()
	out := make([]Pair, len(c.pool))
	c.forEach(func(i int, w trace.Workload) {
		base := c.BaselineMachineCtx(context.Background(), w, sim.Machine)
		run := base
		if sim.Predictor.Family != spec.FamilyNone {
			run = c.RunEngineCfgCtx(context.Background(), w, config, mk(c.EngineSeed(w)), cfg)
		}
		out[i] = Pair{Workload: w.Name, Run: run, Base: base}
	})
	return out
}
