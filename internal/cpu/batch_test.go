package cpu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eves"
	"repro/internal/trace"
)

// batchCfg returns the default configuration with probe batching on.
func batchCfg() Config {
	cfg := DefaultConfig()
	cfg.BatchProbes = true
	return cfg
}

// TestBatchedProbesBitIdentical pins Config.BatchProbes as a pure
// performance knob: for every workload, a recorded-trace run with
// batched probes must produce run statistics and composite predictor
// statistics bit-identical to the serial-probe run. Recordings are used
// (not live generators) because batching only engages on the slice fast
// path, where the lookahead window exists.
func TestBatchedProbesBitIdentical(t *testing.T) {
	pool := trace.Workloads()
	if testing.Short() {
		pool = pool[:10]
	}
	mk := func(seed uint64) (*core.Composite, Engine) {
		c := core.NewComposite(core.CompositeConfig{
			Entries: core.HomogeneousEntries(256),
			Seed:    seed,
			AM:      core.NewPCAM(64),
		})
		return c, NewCompositeEngine(c)
	}
	for _, w := range pool {
		seed := goldenSeed(w.Name)
		rep := trace.Record(w.Build(goldenInsts), trace.FillSeed(w.Name), 0)

		compWant, engWant := mk(seed)
		want := New(DefaultConfig(), engWant).Run(rep, w.Name, "x")

		rep.Rewind()
		compGot, engGot := mk(seed)
		p := Acquire(batchCfg(), engGot)
		got := p.Run(rep, w.Name, "x")
		Release(p)

		if got != want {
			t.Fatalf("%s: batched run diverged\n got: %+v\nwant: %+v", w.Name, got, want)
		}
		if sg, sw := compGot.Stats(), compWant.Stats(); sg != sw {
			t.Fatalf("%s: batched composite stats diverged\n got: %+v\nwant: %+v", w.Name, sg, sw)
		}
	}
}

// TestBatchedProbesLongRun crosses several instret epochs and pooled
// resets, so batch invalidation by the epoch flush and batch state
// recycling through Reset are both exercised.
func TestBatchedProbesLongRun(t *testing.T) {
	const insts = 30000
	w, ok := trace.ByName("gcc2k")
	if !ok {
		t.Fatal("unknown workload gcc2k")
	}
	seed := goldenSeed(w.Name)
	rep := trace.Record(w.Build(insts), trace.FillSeed(w.Name), 0)

	mk := func() Engine {
		return NewCompositeEngine(core.NewComposite(core.CompositeConfig{
			Entries: core.HomogeneousEntries(256),
			Seed:    seed,
			AM:      core.NewMAMEpoch(10_000),
		}))
	}
	want := New(DefaultConfig(), mk()).Run(rep, w.Name, "x")
	want.Config = ""

	cfg := batchCfg()
	p := Acquire(cfg, mk())
	defer Release(p)
	for i := 0; i < 3; i++ {
		rep.Rewind()
		eng := mk()
		p.Reset(cfg, eng)
		got := p.Run(rep, w.Name, "x")
		got.Config = ""
		if got != want {
			t.Fatalf("pass %d: batched run diverged\n got: %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestBatchProbesNonBatchingEngine covers the fallback: an engine
// without the BatchEngine refinement (EVES) must run unchanged under
// Config.BatchProbes.
func TestBatchProbesNonBatchingEngine(t *testing.T) {
	w, _ := trace.ByName("mcf")
	seed := goldenSeed(w.Name)
	rep := trace.Record(w.Build(goldenInsts), trace.FillSeed(w.Name), 0)

	want := New(DefaultConfig(), eves.New(eves.Config{BudgetKB: 32, Seed: seed})).
		Run(rep, w.Name, "x")
	want.Config = ""

	rep.Rewind()
	got := New(batchCfg(), eves.New(eves.Config{BudgetKB: 32, Seed: seed})).
		Run(rep, w.Name, "x")
	got.Config = ""
	if got != want {
		t.Fatalf("EVES under BatchProbes diverged\n got: %+v\nwant: %+v", got, want)
	}
}
