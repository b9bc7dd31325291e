package main

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestEngineSeedMatchesExpt pins the engine lvpsim builds for a spec to
// the one the figures, lvpd and lvpbench build: on a single-context and
// a two-context machine, lvpsim's run equals expt's for the same spec,
// and an engine seeded with the spec's raw seed, as lvpsim's once was,
// gives another run.
func TestEngineSeedMatchesExpt(t *testing.T) {
	const insts = 5000
	for _, contexts := range []int{1, 2} {
		sim := spec.Sim{
			Workload:  spec.WorkloadSpec{Name: "a2time", Insts: insts},
			Machine:   spec.MachineSpec{Contexts: contexts},
			Predictor: spec.PredictorSpec{Family: spec.FamilyComposite},
			Run:       spec.RunSpec{Seed: 0xC0FFEE},
		}
		sim.Normalize(spec.Defaults{})
		if err := sim.Validate(); err != nil {
			t.Fatal(err)
		}
		ectx := expt.NewContext(expt.Options{Insts: insts, Seed: sim.Run.Seed, Workloads: []string{sim.Workload.Name}})
		want := ectx.Runs(sim)[0].Run

		// run simulates sim's streams under eng on one machine, as
		// lvpsim's single- and multi-context paths do.
		run := func(eng cpu.Engine) stats.Run {
			p := cpu.Acquire(sim.Machine.Config(), eng)
			defer cpu.Release(p)
			var gens []trace.Generator
			for _, s := range sim.ContextStreams() {
				g, ok := trace.BuildStream(s, insts)
				if !ok {
					t.Fatalf("unknown stream %q", s)
				}
				gens = append(gens, g)
			}
			var r stats.Run
			if contexts > 1 {
				r = p.RunSMT(gens, sim.ContextWorkloads(), sim.WorkloadLabel(), "run")
			} else {
				r = p.Run(gens[0], sim.Workload.Name, "run")
			}
			r.Workload, r.Config = want.Workload, want.Config
			return r
		}
		eng, err := newEngine(sim)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(eng); got != want {
			t.Fatalf("%d contexts: lvpsim's run differs from expt's for the same spec\n got: %+v\nwant: %+v", contexts, got, want)
		}
		raw, err := spec.NewEngine(sim.Predictor, insts, sim.Run.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if run(raw) == want {
			t.Fatalf("%d contexts: an engine on the raw seed runs the same, so the test shows nothing", contexts)
		}
	}
}
