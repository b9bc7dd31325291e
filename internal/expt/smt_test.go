package expt

import (
	"context"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

func smtSim(t *testing.T, contexts int, names ...string) spec.Sim {
	t.Helper()
	sim := spec.Sim{
		Machine:  spec.MachineSpec{Contexts: contexts},
		Workload: spec.WorkloadSpec{Names: names},
	}
	n, _, err := sim.Canonical(spec.Defaults{Insts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunSMTDeterministicAcrossTraceSources(t *testing.T) {
	sim := smtSim(t, 2, "gcc2k", "mcf")
	c := NewContext(Options{Insts: 10_000, Workloads: []string{"gcc2k"}})
	live, _ := c.Simulate(context.Background(), sim)

	// The same spec replayed from recorded artifacts must match.
	store, err := trace.NewArtifactStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewContext(Options{Insts: 10_000, Workloads: []string{"gcc2k"}, Traces: store})
	replayed, _ := ct.Simulate(context.Background(), sim)
	if live.Merged != replayed.Merged {
		t.Fatalf("artifact-replayed SMT run diverged:\n got: %+v\nwant: %+v", replayed.Merged, live.Merged)
	}
	for i := range live.Per {
		if live.Per[i] != replayed.Per[i] {
			t.Fatalf("context %d diverged:\n got: %+v\nwant: %+v", i, replayed.Per[i], live.Per[i])
		}
	}
	if st := store.Stats(); st.Generated != 2 {
		t.Errorf("store generated %d artifacts, want 2 (one per context stream)", st.Generated)
	}
}

func TestSMTBaselineCachedPerMixAndMachine(t *testing.T) {
	c := NewContext(Options{Insts: 10_000, Workloads: []string{"gcc2k"}})
	sim := smtSim(t, 2, "gcc2k", "gcc2k")
	a, _ := c.Baseline(context.Background(), sim)
	b, memoized := c.Baseline(context.Background(), sim)
	if a.Merged != b.Merged || len(a.Per) != 2 || !memoized {
		t.Fatalf("cached SMT baseline diverged or was not memoized:\n%+v\n%+v", a, b)
	}
	// The single-context baseline of the same workload must live under a
	// different key — the SMT baseline's contention must not leak into it.
	w, _ := trace.ByName("gcc2k")
	solo := baseline(c, w)
	if solo == a.Merged {
		t.Error("single-context baseline equals the 2-context merged baseline")
	}
	if solo.Instructions != 10_000 || a.Merged.Instructions != 20_000 {
		t.Errorf("budgets wrong: solo=%d merged=%d", solo.Instructions, a.Merged.Instructions)
	}
	// A 4-context baseline of the same mix label is keyed by its machine.
	sim4 := smtSim(t, 4, "gcc2k", "gcc2k", "gcc2k", "gcc2k")
	d, _ := c.Baseline(context.Background(), sim4)
	if d.Merged == a.Merged {
		t.Error("4-context baseline collided with the 2-context cache entry")
	}
}

// TestRunsMultiContextMatchesSMT: a multi-context spec over the pool
// runs each workload as a homogeneous mix through the SMT path, as lvpd
// does, so its pairs are the merged runs of RunSMTCtx against
// SMTBaselineCtx, not context 0 of a single-stream run. It also pins
// those two lvpbench calls to the memo's path.
func TestRunsMultiContextMatchesSMT(t *testing.T) {
	names := []string{"a2time", "gcc2k"}
	pairs := NewContext(Options{Insts: 5_000, Workloads: names}).Runs(spec.Sim{Machine: spec.MachineSpec{Contexts: 2}})
	ref := NewContext(Options{Insts: 5_000, Workloads: names})
	for i, name := range names {
		sim, _, err := spec.Sim{
			Machine:  spec.MachineSpec{Contexts: 2},
			Workload: spec.WorkloadSpec{Name: name},
		}.Canonical(spec.Defaults{Insts: ref.Insts(), Seed: ref.Seed()})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := spec.NewEngine(sim.Predictor, ref.Insts(), ref.EngineSeedLabel(sim.WorkloadLabel()))
		if err != nil {
			t.Fatal(err)
		}
		run := ref.RunSMTCtx(context.Background(), sim, string(sim.Predictor.Family), eng)
		base := ref.SMTBaselineCtx(context.Background(), sim)
		if p := pairs[i]; p.Workload != name || p.Run != run.Merged || p.Base != base.Merged {
			t.Errorf("%s: Runs pair diverges from the SMT path:\n run %+v\nwant %+v\n base %+v\nwant %+v",
				name, p.Run, run.Merged, p.Base, base.Merged)
		}
	}
}
