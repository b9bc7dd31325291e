package expt

import (
	"context"

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

// SMTResult is a simulation's machine-wide run and, on a multi-context
// machine, its per-context runs (context i's run at Per[i]). Per is nil
// for a single-context run.
type SMTResult struct {
	Merged stats.Run
	Per    []stats.Run
}

// Aborted reports whether the simulation was cut short.
func (r SMTResult) Aborted() bool { return r.Merged.Aborted }

// runStreams simulates a normalized spec's streams, one per hardware
// context, on a pooled pipeline with the supplied fresh engine: pr.All
// receives the machine-wide snapshot and pr.Rows[i] context i's own.
// Per is set on a multi-context machine only.
func (c *Context) runStreams(ctx context.Context, sim spec.Sim, config string, eng cpu.Engine, pr Progress) SMTResult {
	streams := sim.ContextStreams()
	gens := make([]trace.Generator, len(streams))
	for i, s := range streams {
		gens[i] = c.gen(s)
	}
	p := cpu.Acquire(sim.Machine.Config(), eng)
	defer cpu.Release(p)
	if pr.All != nil {
		// Attach after Acquire: the pool's Reset detaches slots.
		p.SetProgress(pr.All, pr.Every)
	}
	if len(pr.Rows) > 0 {
		p.SetProgressRows(pr.Rows, pr.Every)
	}
	r := SMTResult{Merged: p.RunSMTCtx(ctx, gens, sim.ContextWorkloads(), sim.WorkloadLabel(), config)}
	if p.NumContexts() > 1 {
		r.Per = make([]stats.Run, p.NumContexts())
		for i := range r.Per {
			r.Per[i] = p.ContextRun(i)
		}
	}
	return r
}
