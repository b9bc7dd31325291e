package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eves"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSpecGoldenParity freezes the pre-spec engine constructions (the
// literal core/eves calls the experiment layer used before the spec
// registry existed) and proves the default spec.Sim path produces
// bit-identical stats.Run values for the composite, best, and EVES
// configurations on three workloads. A divergence here means the
// registry changed simulation semantics, not just plumbing.
func TestSpecGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 18 runs")
	}
	const insts = 20_000
	ctx := NewContext(Options{
		Insts:     insts,
		Workloads: []string{"gcc2k", "mcf", "xalancbmk"},
	})

	// The pre-refactor epoch scaling: insts/20 floored at 2000.
	legacyEpoch := uint64(insts) / 20
	if legacyEpoch < 2000 {
		legacyEpoch = 2000
	}

	legacy := map[string]func(seed uint64) cpu.Engine{
		// Default composite: homogeneous 1K tables, PC-AM(64).
		"composite": func(seed uint64) cpu.Engine {
			return cpu.NewCompositeEngine(core.NewComposite(core.CompositeConfig{
				Entries: core.HomogeneousEntries(1024),
				Seed:    seed,
				AM:      core.NewPCAM(64),
			}))
		},
		// Best: composite + PC-AM(64) + scaled table fusion, no smart
		// training (see BestComposite's doc comment).
		"best": func(seed uint64) cpu.Engine {
			return cpu.NewCompositeEngine(core.NewComposite(core.CompositeConfig{
				Entries: core.HomogeneousEntries(1024),
				Seed:    seed,
				AM:      core.NewPCAM(64),
				Fusion: &core.FusionConfig{
					EpochInstrs:    legacyEpoch / 2,
					UsedPerKilo:    20,
					ClassifyEpochs: 5,
					CycleEpochs:    25,
				},
			}))
		},
		"eves": func(seed uint64) cpu.Engine {
			return eves.New(eves.Config{BudgetKB: 32, Seed: seed})
		},
	}

	specs := map[string]spec.Sim{
		"composite": {}, // the zero spec IS the default composite
		"best":      {Predictor: spec.PredictorSpec{Family: spec.FamilyBest}},
		"eves":      {Predictor: spec.PredictorSpec{Family: spec.FamilyEVES}},
	}

	for name, mkLegacy := range legacy {
		sim := specs[name]
		sim.Normalize(spec.Defaults{Insts: insts})
		if err := sim.ValidateConfig(); err != nil {
			t.Fatalf("%s: spec does not validate: %v", name, err)
		}
		for _, w := range ctx.Pool() {
			seed := ctx.EngineSeed(w)
			eng, err := spec.NewEngine(sim.Predictor, insts, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := runOnce(ctx, w, name, mkLegacy(seed))
			got := runOnce(ctx, w, name, eng)
			if want != got {
				t.Errorf("%s/%s: spec path diverges from the frozen pre-spec construction:\nlegacy %+v\nspec   %+v",
					name, w.Name, want, got)
			}
		}
	}
}

// runOnce simulates one (workload, engine) run on the Table III machine
// outside the Context's memo, so both sides of the parity check go
// through the identical code path.
func runOnce(ctx *Context, w trace.Workload, config string, eng cpu.Engine) stats.Run {
	p := cpu.Acquire(cpu.DefaultConfig(), eng)
	defer cpu.Release(p)
	return p.Run(w.Build(ctx.Insts()), w.Name, config)
}
