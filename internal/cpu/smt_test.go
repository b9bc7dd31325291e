package cpu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

func smtEngine(seed uint64) Engine {
	return NewCompositeEngine(core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256),
		Seed:    seed,
		AM:      core.NewPCAM(64),
	}))
}

func smtConfig(contexts, quantum int) Config {
	cfg := DefaultConfig()
	cfg.Contexts = contexts
	cfg.SMTQuantum = quantum
	return cfg
}

// smtGens builds one independently-seeded stream per context of the
// named workloads (workloads[i] runs on context i with salt i).
func smtGens(t *testing.T, workloads []string, insts uint64) []trace.Generator {
	t.Helper()
	gens := make([]trace.Generator, len(workloads))
	for i, name := range workloads {
		g, ok := trace.BuildStream(trace.StreamName(name, i), insts)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		gens[i] = g
	}
	return gens
}

// TestSMT1MatchesSingle pins the N=1 interleaved path to the plain
// single-context path: a 1-context RunSMT must produce exactly the run
// Run produces, merged and per-context, for both the baseline and a
// composite engine.
func TestSMT1MatchesSingle(t *testing.T) {
	const insts = 20_000
	for _, eng := range []struct {
		name string
		mk   func(seed uint64) Engine
	}{
		{"baseline", func(uint64) Engine { return nil }},
		{"composite", smtEngine},
	} {
		for _, name := range []string{"gcc2k", "mcf"} {
			w, _ := trace.ByName(name)
			want := New(DefaultConfig(), eng.mk(1)).Run(w.Build(insts), name, "cfg")

			p := New(smtConfig(1, 0), eng.mk(1))
			got := p.RunSMT([]trace.Generator{w.Build(insts)}, []string{name}, name, "cfg")
			if got != want {
				t.Fatalf("%s/%s: 1-context RunSMT diverged from Run\n got: %+v\nwant: %+v",
					eng.name, name, got, want)
			}
			if pc := p.ContextRun(0); pc != want {
				t.Fatalf("%s/%s: per-context run diverged\n got: %+v\nwant: %+v",
					eng.name, name, pc, want)
			}
		}
	}
}

// TestSMTDeterministic pins a 4-context interleaved run: two fresh
// simulations of the same spec must agree bit-for-bit, per context and
// merged, for both interleave quanta.
func TestSMTDeterministic(t *testing.T) {
	const insts = 10_000
	workloads := []string{"gcc2k", "mcf", "linpack", "gcc2k"}
	for _, quantum := range []int{0, 64} {
		run := func() (stats.Run, [4]stats.Run) {
			p := New(smtConfig(4, quantum), smtEngine(1))
			merged := p.RunSMT(smtGens(t, workloads, insts), workloads, "smt4", "cfg")
			var per [4]stats.Run
			for i := range per {
				per[i] = p.ContextRun(i)
			}
			return merged, per
		}
		m1, p1 := run()
		m2, p2 := run()
		if m1 != m2 {
			t.Fatalf("quantum %d: merged runs diverged\n got: %+v\nwant: %+v", quantum, m2, m1)
		}
		if p1 != p2 {
			t.Fatalf("quantum %d: per-context runs diverged\n got: %+v\nwant: %+v", quantum, p2, p1)
		}
		var sum uint64
		for _, r := range p1 {
			sum += r.Instructions
			if r.Instructions != insts {
				t.Fatalf("quantum %d: context ran %d instructions, want %d", quantum, r.Instructions, insts)
			}
		}
		if m1.Instructions != sum {
			t.Fatalf("quantum %d: merged instructions %d != per-context sum %d", quantum, m1.Instructions, sum)
		}
	}
}

// TestSMTReplaysFromArtifacts is the recorded-trace determinism pin: a
// 4-context run driven by recorded artifact cursors (the path sweep
// workers take) must be bit-identical to the same run driven by live
// generators, across pooled reuse.
func TestSMTReplaysFromArtifacts(t *testing.T) {
	const insts = 10_000
	workloads := []string{"mcf", "mcf", "gzip", "v8"}
	cfg := smtConfig(4, 0)

	live := New(cfg, smtEngine(7)).RunSMT(smtGens(t, workloads, insts), workloads, "smt4", "cfg")

	store, err := trace.NewArtifactStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := Acquire(cfg, smtEngine(7))
	defer Release(p)
	for round := 0; round < 2; round++ {
		gens := make([]trace.Generator, len(workloads))
		for i, name := range workloads {
			cur, err := store.Cursor(trace.StreamName(name, i), insts)
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = cur
		}
		p.Reset(cfg, smtEngine(7))
		got := p.RunSMT(gens, workloads, "smt4", "cfg")
		if got != live {
			t.Fatalf("round %d: artifact-replayed SMT run diverged from live generation\n got: %+v\nwant: %+v",
				round, got, live)
		}
		if c := p.resourceClobbers(); c != 0 {
			t.Fatalf("round %d: %d cycle-ring clobbers", round, c)
		}
	}
}

// TestSMTSaltedStreamsDiverge checks that two contexts running "the
// same" workload do not execute lockstep-identical streams: the salt-1
// stream must differ from the canonical stream.
func TestSMTSaltedStreamsDiverge(t *testing.T) {
	g0, _ := trace.BuildStream("gcc2k", 2000)
	g1, ok := trace.BuildStream(trace.StreamName("gcc2k", 1), 2000)
	if !ok {
		t.Fatal("salted stream did not build")
	}
	var a, b trace.Inst
	same := true
	for g0.Next(&a) && g1.Next(&b) {
		if a != b {
			same = false
			break
		}
	}
	if same {
		t.Fatal("salt-1 stream is identical to the canonical stream")
	}
	if name, salt := trace.SplitStreamName("gcc2k#3"); name != "gcc2k" || salt != 3 {
		t.Fatalf("SplitStreamName = %q,%d", name, salt)
	}
}

// TestSMTSharesPredictorAndCaches is the structural pin of the split:
// contexts must observe each other through the shared tables. A
// 2-context run of the same workload must not behave as two isolated
// single-context runs — the shared engine's probe stream interleaves
// both contexts, and the shared caches see both working sets.
func TestSMTSharesPredictorAndCaches(t *testing.T) {
	const insts = 20_000
	w, _ := trace.ByName("mcf")

	solo := New(DefaultConfig(), smtEngine(1)).Run(w.Build(insts), "mcf", "cfg")

	p := New(smtConfig(2, 0), smtEngine(1))
	p.RunSMT(smtGens(t, []string{"mcf", "mcf"}, insts), []string{"mcf", "mcf"}, "smt2", "cfg")
	ctx0 := p.ContextRun(0)

	// Context 0 runs the identical canonical stream the solo run did; if
	// the contexts were fully isolated its counters would match the solo
	// run exactly. Sharing must perturb them.
	if ctx0.Cycles == solo.Cycles && ctx0.CorrectPredicted == solo.CorrectPredicted {
		t.Fatalf("context 0 under SMT is bit-identical to the solo run — contexts are not sharing state: %+v", ctx0)
	}

	// And the shared L2 must have seen more demand than either context
	// alone would generate: both contexts' tagged working sets flow
	// through one hierarchy.
	st := p.Hierarchy().L2.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("shared L2 saw no traffic")
	}
}

// TestSMTProgressRows checks per-context progress rows publish each
// context's own counters alongside the machine-wide aggregate slot.
func TestSMTProgressRows(t *testing.T) {
	const insts = 20_000
	workloads := []string{"gcc2k", "mcf"}
	p := New(smtConfig(2, 0), smtEngine(1))
	var agg Progress
	rows := [2]Progress{}
	p.SetProgress(&agg, 4096)
	p.SetProgressRows([]*Progress{&rows[0], &rows[1]}, 4096)
	merged := p.RunSMT(smtGens(t, workloads, insts), workloads, "smt2", "cfg")

	as, ok := agg.Load()
	if !ok {
		t.Fatal("aggregate slot never published")
	}
	if as.Instructions != merged.Instructions {
		t.Fatalf("aggregate snapshot %d instructions, merged run %d", as.Instructions, merged.Instructions)
	}
	for i := range rows {
		rs, ok := rows[i].Load()
		if !ok {
			t.Fatalf("context %d row never published", i)
		}
		want := p.ContextRun(i)
		if rs.Instructions != want.Instructions || rs.Loads != want.Loads {
			t.Fatalf("context %d row %+v disagrees with its run %+v", i, rs, want)
		}
	}
}

// TestSMTPooledResetMatchesFresh extends the pooling guarantee to the
// interleaved path: Reset on a pooled multi-context pipeline must
// reproduce a fresh pipeline's run bit-for-bit.
func TestSMTPooledResetMatchesFresh(t *testing.T) {
	const insts = 10_000
	workloads := []string{"gcc2k", "linpack", "mcf", "v8"}
	cfg := smtConfig(4, 64)
	fresh := New(cfg, smtEngine(3)).RunSMT(smtGens(t, workloads, insts), workloads, "smt4", "cfg")

	p := Acquire(cfg, smtEngine(3))
	defer Release(p)
	for i := 0; i < 3; i++ {
		p.Reset(cfg, smtEngine(3))
		got := p.RunSMT(smtGens(t, workloads, insts), workloads, "smt4", "cfg")
		if got != fresh {
			t.Fatalf("iteration %d diverged from fresh run\n got: %+v\nwant: %+v", i, got, fresh)
		}
	}
}

// TestSMTSteadyStateZeroAlloc is the hard allocation gate for the
// interleaved hot path (BenchmarkPipelineSMT4 is the benchgate-side
// twin): after warmup, a pooled 4-context run from recorded cursors
// must allocate nothing.
func TestSMTSteadyStateZeroAlloc(t *testing.T) {
	const insts = 5_000
	workloads := []string{"gcc2k", "gcc2k", "mcf", "linpack"}
	cfg := smtConfig(4, 0)
	reps := make([]*trace.Replay, len(workloads))
	for i, name := range workloads {
		g, _ := trace.BuildStream(trace.StreamName(name, i), insts)
		reps[i] = trace.Record(g, 0, 0)
	}
	comp := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewPCAM(64),
	})
	eng := NewCompositeEngine(comp)
	p := Acquire(cfg, eng)
	defer Release(p)
	gens := make([]trace.Generator, len(reps))
	iter := func() {
		for i, r := range reps {
			r.Rewind()
			gens[i] = r
		}
		comp.ResetState()
		p.Reset(cfg, eng)
		if r := p.RunSMT(gens, workloads, "smt4", "bench"); r.Instructions != insts*uint64(len(workloads)) {
			t.Fatalf("short run: %+v", r)
		}
	}
	iter() // warmup: clone the four memory images outside the measurement
	if allocs := testing.AllocsPerRun(3, iter); allocs != 0 {
		t.Fatalf("steady-state SMT run allocated %.1f times per run, want 0", allocs)
	}
}
