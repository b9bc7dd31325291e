package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

// sampleNames picks a stratified subset of the pool for quicker sweeps.
func sampleNames(n int) []string {
	var all []string
	for _, w := range NewContext(Options{Insts: 1}).Pool() {
		all = append(all, w.Name)
	}
	if n >= len(all) {
		return all
	}
	out := make([]string, 0, n)
	step := float64(len(all)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}

// TestComponentAccuracyTuning verifies the paper's central tuning
// premise: every component predictor, in isolation, delivers ≈99%
// accuracy on the workload mix (Section III-B).
func TestComponentAccuracyTuning(t *testing.T) {
	ctx := NewContext(Options{Insts: 60_000, Workloads: sampleNames(12)})
	for _, comp := range allComponents {
		a := ctx.summary(single(comp, 1024))
		if a.Accuracy < 0.99 {
			t.Errorf("%v accuracy = %.4f, want >= 0.99", comp, a.Accuracy)
		}
		if a.Coverage <= 0 {
			t.Errorf("%v coverage = %.1f%%", comp, a.Coverage)
		}
	}
}

// TestCompositeCoverageExceedsComponents: the composite's coverage must
// exceed every component's at equal per-component sizing (the paper's
// complementarity result).
func TestCompositeCoverageExceedsComponents(t *testing.T) {
	ctx := NewContext(Options{Insts: 60_000, Workloads: sampleNames(12)})
	compAgg := ctx.summary(composite(core.HomogeneousEntries(256), spec.AMPC, false, false))
	for _, comp := range allComponents {
		a := ctx.summary(single(comp, 1024))
		if compAgg.Coverage <= a.Coverage {
			t.Errorf("composite coverage %.1f%% <= %v coverage %.1f%%", compAgg.Coverage, comp, a.Coverage)
		}
	}
}

// TestCompositeBeatsEVES reproduces the Figure 11 headline on a sample:
// more coverage and at least comparable speedup against EVES at a
// larger budget.
func TestCompositeBeatsEVES(t *testing.T) {
	ctx := NewContext(Options{Insts: 60_000, Workloads: sampleNames(12)})
	_, big := fig11Configs()
	comp := ctx.summary(bestComposite(big))
	ev := ctx.summary(evesAt(32))
	if comp.Coverage < 1.5*ev.Coverage {
		t.Errorf("composite coverage %.1f%% < 1.5 × EVES %.1f%%", comp.Coverage, ev.Coverage)
	}
	if comp.Speedup < ev.Speedup {
		t.Errorf("composite speedup %.2f%% < EVES %.2f%%", comp.Speedup, ev.Speedup)
	}
}
