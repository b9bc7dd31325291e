package expt

import (
	"context"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Multi-context (SMT) execution. A spec with Machine.Contexts > 1 runs
// one independently-seeded instruction stream per hardware context on a
// single pipeline whose predictors, caches, and TLBs are shared (see
// DESIGN.md §14); the result is the machine-wide merged run plus the
// per-context runs. Baselines share the context's memo with
// single-context ones: the spec hash covers the context count,
// interleave policy and workload mix, so an SMT baseline can never
// collide with a single-context one.

// SMTResult couples the merged run of a multi-context simulation with
// its per-context runs (context i's run at Per[i]).
type SMTResult struct {
	Merged stats.Run
	Per    []stats.Run
}

// Aborted reports whether the simulation was cut short.
func (r SMTResult) Aborted() bool { return r.Merged.Aborted }

// EngineSeedLabel returns the engine seed for a workload-mix label,
// derived from the context seed (see DeriveEngineSeed).
func (c *Context) EngineSeedLabel(label string) uint64 {
	return DeriveEngineSeed(c.seed, label)
}

// DeriveEngineSeed returns the engine seed of a run whose spec has the
// given seed and workload label (spec.Sim.WorkloadLabel). Every surface
// that runs a spec seeds its engine this way, so one spec gives one
// result. A homogeneous mix's label is the bare workload name, so a
// 1-context SMT run seeds identically to the plain run.
func DeriveEngineSeed(seed uint64, label string) uint64 {
	return core.SplitMix64(seed ^ hashName(label))
}

// RunSMTCtx simulates a normalized multi-context spec with the supplied
// fresh engine and returns the merged and per-context runs. The
// instruction budget is the context's per-context budget; config labels
// every run. The run is not memoized.
func (c *Context) RunSMTCtx(ctx context.Context, sim spec.Sim, config string, eng cpu.Engine) SMTResult {
	return c.RunSMTProgressCtx(ctx, sim, config, eng, nil, nil, 0)
}

// RunSMTProgressCtx is RunSMTCtx with live progress: pr receives the
// machine-wide aggregate snapshot and rows[i] context i's own snapshot,
// every `every` instructions (nil slots publish nothing).
func (c *Context) RunSMTProgressCtx(ctx context.Context, sim spec.Sim, config string, eng cpu.Engine, pr *cpu.Progress, rows []*cpu.Progress, every int) SMTResult {
	streams := sim.ContextStreams()
	gens := make([]trace.Generator, len(streams))
	for i, s := range streams {
		gens[i] = c.gen(s)
	}
	p := cpu.Acquire(sim.Machine.Config(), eng)
	defer cpu.Release(p)
	if pr != nil {
		// Attach after Acquire: the pool's Reset detaches slots.
		p.SetProgress(pr, every)
	}
	if len(rows) > 0 {
		p.SetProgressRows(rows, every)
	}
	merged := p.RunSMTCtx(ctx, gens, sim.ContextWorkloads(), sim.WorkloadLabel(), config)
	per := make([]stats.Run, p.NumContexts())
	for i := range per {
		per[i] = p.ContextRun(i)
	}
	return SMTResult{Merged: merged, Per: per}
}

// HasSMTBaseline reports whether the spec's (mix, machine) baseline is
// already memoized.
func (c *Context) HasSMTBaseline(sim spec.Sim) bool {
	return c.memoized(c.baselineOf(sim))
}

// SMTBaselineCtx simulates (or returns the memoized) no-VP run of the
// spec's workload mix on the spec's machine. Like single-context
// baselines, each (mix, machine) pair is simulated at most once, with
// concurrent callers waiting on the in-flight run, and aborted runs are
// returned but never memoized.
func (c *Context) SMTBaselineCtx(ctx context.Context, sim spec.Sim) SMTResult {
	return c.SMTBaselineProgressCtx(ctx, sim, nil, nil, 0)
}

// SMTBaselineProgressCtx is SMTBaselineCtx with live progress slots,
// published only when this caller ends up simulating the baseline.
func (c *Context) SMTBaselineProgressCtx(ctx context.Context, sim spec.Sim, pr *cpu.Progress, rows []*cpu.Progress, every int) SMTResult {
	return c.run(ctx, c.baselineOf(sim), pr, rows, every).SMTResult
}
