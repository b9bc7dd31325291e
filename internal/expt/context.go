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
// Baseline and Simulate are the one path from a spec to a result:
// lvpsim and lvpd call them, and Runs takes the same two steps for the
// figures, memoizing the configured run too. The memo holds every
// baseline and every run Runs asks for, keyed by the canonical hash of
// the run's full spec.Sim at the context's budget and seed, the key
// lvpd's result cache and warehouse use. Each key is simulated at most
// once: concurrent callers wait for the in-flight run. Aborted runs are
// returned but never memoized, and Simulate bypasses the memo.
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

// Progress names a run's live progress slots: the pipeline publishes
// the machine-wide snapshot (run counters plus the engine's
// per-component telemetry) into All and context i's own snapshot into
// Rows[i] every Every instructions (cpu.DefaultProgressInterval when
// Every <= 0). Nil slots publish nothing.
type Progress struct {
	All   *cpu.Progress
	Rows  []*cpu.Progress
	Every int
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

// Baseline returns the no-VP run of sim's machine and workload mix at
// the context's budget and seed, from the memo, and reports whether a
// complete run was memoized when the call began. On a miss it waits for
// an in-flight run of the same spec, or simulates one and publishes its
// progress into the first progress value, if any.
func (c *Context) Baseline(ctx context.Context, sim spec.Sim, progress ...Progress) (SMTResult, bool) {
	r, memoized := c.run(ctx, c.baselineOf(sim), slots(progress))
	return r.SMTResult, memoized
}

// Simulate runs sim at the context's budget and seed on a fresh engine
// from the spec registry, seeded through EngineSeedLabel, and publishes
// its progress into the first progress value, if any. It returns the
// machine-wide run (with the per-context runs on a multi-context
// machine) and the composite behind the engine, nil for other predictor
// families. The run is not memoized.
func (c *Context) Simulate(ctx context.Context, sim spec.Sim, progress ...Progress) (SMTResult, *core.Composite) {
	return c.simulate(ctx, c.canonical(sim), slots(progress))
}

// slots returns the progress slots of an optional progress argument.
func slots(progress []Progress) Progress {
	if len(progress) == 0 {
		return Progress{}
	}
	return progress[0]
}

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

// run returns the memoized run of a canonical spec, simulating it if no
// complete run is memoized and none is in flight, and reports whether a
// complete run was memoized when the call began. Only the caller that
// simulates publishes progress into pr.
func (c *Context) run(ctx context.Context, sim spec.Sim, pr Progress) (memoRun, bool) {
	key := sim.CanonicalHash()
	for first := true; ; first = false {
		c.mu.Lock()
		e := c.memo[key]
		if e != nil && e.ok {
			c.mu.Unlock()
			return e.res, first
		}
		if e != nil {
			c.mu.Unlock()
			select {
			case <-e.done:
				continue // the run may have aborted; look again
			case <-ctx.Done():
				aborted := stats.Run{Workload: sim.WorkloadLabel(), Config: configLabel(sim.Predictor), Aborted: true}
				return memoRun{SMTResult: SMTResult{Merged: aborted}}, false
			}
		}
		e = &memoEntry{done: make(chan struct{})}
		c.memo[key] = e
		c.mu.Unlock()

		r, comp := c.simulate(ctx, sim, pr)
		m := memoRun{SMTResult: r}
		if comp != nil {
			m.comp = comp.Stats()
		}
		c.mu.Lock()
		if r.Aborted() {
			delete(c.memo, key)
		} else {
			e.res, e.ok = m, true
		}
		c.mu.Unlock()
		close(e.done)
		return m, false
	}
}

// simulate runs a canonical spec with a fresh engine from the spec
// registry and returns the run and the composite behind the engine, if
// any. Every machine, single-context or not, runs the spec's streams
// through one pipeline call. This is the only place a spec becomes an
// engine.
func (c *Context) simulate(ctx context.Context, sim spec.Sim, pr Progress) (SMTResult, *core.Composite) {
	eng, err := spec.NewEngine(sim.Predictor, c.insts, c.EngineSeedLabel(sim.WorkloadLabel()))
	if err != nil {
		// Unreachable for normalized specs; services validate
		// untrusted specs before reaching here.
		panic("expt: " + err.Error())
	}
	r := c.runStreams(ctx, sim, configLabel(sim.Predictor), eng, pr)
	var comp *core.Composite
	if ce, ok := eng.(*cpu.CompositeEngine); ok {
		comp = ce.C
	}
	return r, comp
}

// configLabel is the config label of a run: "base" for the no-VP
// baseline, the predictor family otherwise.
func configLabel(p spec.PredictorSpec) string {
	if p.Family == spec.FamilyNone {
		return "base"
	}
	return string(p.Family)
}

// EngineSeedLabel returns the engine seed of a run whose workload mix
// has the given label (spec.Sim.WorkloadLabel), derived from the
// context seed. simulate seeds every spec's engine here, so one spec
// gives one result on every surface; the VPsec experiment's composite
// is its only other caller in the program. A homogeneous mix's label is
// the bare workload name, so a 1-context SMT run seeds identically to
// the plain run. It is exported for lvpbench only (see below).
func (c *Context) EngineSeedLabel(label string) uint64 {
	return core.SplitMix64(c.seed ^ hashName(label))
}

// The methods below predate Baseline and Simulate and keep their
// behaviour for their one remaining caller, lvpbench, until it moves
// onto those two (ROADMAP item 10). Nothing else should call them.

// BaselineMachineCtx is Baseline's merged run for workload w on
// machine m. lvpbench-only.
func (c *Context) BaselineMachineCtx(ctx context.Context, w trace.Workload, m spec.MachineSpec) stats.Run {
	r, _ := c.Baseline(ctx, spec.Sim{Machine: m, Workload: spec.WorkloadSpec{Name: w.Name}})
	return r.Merged
}

// SMTBaselineCtx is Baseline without its memo flag. lvpbench-only.
func (c *Context) SMTBaselineCtx(ctx context.Context, sim spec.Sim) SMTResult {
	r, _ := c.Baseline(ctx, sim)
	return r
}

// EngineSeed is EngineSeedLabel of w's name. lvpbench-only.
func (c *Context) EngineSeed(w trace.Workload) uint64 {
	return c.EngineSeedLabel(w.Name)
}

// RunEngineCfgCtx simulates workload w on core configuration cfg with
// the supplied fresh engine, labelling the run config, on a pooled
// pipeline. The run is not memoized. lvpbench-only.
func (c *Context) RunEngineCfgCtx(ctx context.Context, w trace.Workload, config string, eng cpu.Engine, cfg cpu.Config) stats.Run {
	p := cpu.Acquire(cfg, eng)
	defer cpu.Release(p)
	return p.RunCtx(ctx, c.gen(w.Name), w.Name, config)
}

// RunSMTCtx simulates a normalized multi-context spec with the supplied
// fresh engine and returns the merged and per-context runs, each
// labelled config. The run is not memoized. lvpbench-only.
func (c *Context) RunSMTCtx(ctx context.Context, sim spec.Sim, config string, eng cpu.Engine) SMTResult {
	return c.runStreams(ctx, sim, config, eng, Progress{})
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
		base, _ := c.Baseline(context.Background(), one)
		run, _ := c.run(context.Background(), c.canonical(one), Progress{})
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
