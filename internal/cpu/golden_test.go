package cpu

import (
	"context"
	"sync"
	"testing"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/eves"
	"repro/internal/stats"
	"repro/internal/trace"
)

// goldenInsts is the per-run budget of the differential test. It spans
// many prune periods (4096) and table compactions, so the ring/table
// replacements are exercised through their reclamation paths.
const goldenInsts = 6000

// goldenSeed derives the per-workload predictor seed.
func goldenSeed(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return core.SplitMix64(0xC0FFEE ^ h)
}

// goldenEngines returns matched engine factories: index 0 feeds the
// reference pipeline, index 1 the refactored one. Both must be freshly
// built per run with the same seed so predictor state evolves
// identically.
var goldenEngines = []struct {
	name string
	mk   func(seed uint64) Engine
}{
	{"baseline", func(uint64) Engine { return nil }},
	{"composite", func(seed uint64) Engine {
		return NewCompositeEngine(core.NewComposite(core.CompositeConfig{
			Entries: core.HomogeneousEntries(256),
			Seed:    seed,
			AM:      core.NewPCAM(64),
		}))
	}},
	{"eves", func(seed uint64) Engine {
		return eves.New(eves.Config{BudgetKB: 32, Seed: seed})
	}},
}

// TestGoldenDifferential pins the refactored (ring-buffer, pooled)
// pipeline bit-identical to the frozen map-based reference for every
// workload under baseline, composite, and EVES engines. The refactored
// side runs through Acquire/Release, so pipeline reuse across
// heterogeneous workloads is covered by the same oracle.
func TestGoldenDifferential(t *testing.T) {
	pool := trace.Workloads()
	if testing.Short() {
		pool = pool[:10]
	}
	cfg := DefaultConfig()
	for _, eng := range goldenEngines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			for _, w := range pool {
				seed := goldenSeed(w.Name)
				want := newRefPipeline(cfg, eng.mk(seed)).
					Run(w.Build(goldenInsts), w.Name, eng.name)

				p := Acquire(cfg, eng.mk(seed))
				got := p.Run(w.Build(goldenInsts), w.Name, eng.name)
				clobbers := p.resourceClobbers()
				Release(p)

				if got != want {
					t.Fatalf("%s/%s: refactored run diverged\n got: %+v\nwant: %+v",
						eng.name, w.Name, got, want)
				}
				if clobbers != 0 {
					t.Fatalf("%s/%s: %d cycle-ring clobbers (ring undersized)",
						eng.name, w.Name, clobbers)
				}

				// Twice more over one recording, pooled: the first run
				// predicts the branches and publishes their outcomes,
				// the second replays them.
				rep := trace.Record(w.Build(goldenInsts), 0, 0)
				for _, phase := range []string{"filling", "replaying"} {
					p := Acquire(cfg, eng.mk(seed))
					got := p.Run(rep.Cursor(), w.Name, eng.name)
					live := predicted(p)
					Release(p)
					if got != want {
						t.Fatalf("%s/%s: %s run over a recording diverged\n got: %+v\nwant: %+v",
							eng.name, w.Name, phase, got, want)
					}
					if o := rep.BranchOutcomes(); o == nil || o.Len != goldenInsts {
						t.Fatalf("%s/%s: after the %s run the recording holds outcomes %+v, want %d instructions",
							eng.name, w.Name, phase, o, goldenInsts)
					}
					if phase == "replaying" && live {
						t.Fatalf("%s/%s: the second run over a recording predicted its branches", eng.name, w.Name)
					}
				}
			}
		})
	}
}

// predicted reports whether p's last run consulted TAGE or ITTAGE,
// that is, predicted its branches instead of replaying a recording's
// outcomes.
func predicted(p *Pipeline) bool {
	return p.tage.StatsSnapshot().Lookups+p.ittage.StatsSnapshot().Lookups > 0
}

// TestGoldenBranchOutcomes pins when a run replays a recording's
// branch outcomes and when it predicts live, each case against the
// frozen reference: a run replays only from instruction 0, on a
// pipeline whose branch predictors are fresh, under the configuration
// the outcomes were computed with, and over no more instructions than
// they cover; only a complete run publishes.
func TestGoldenBranchOutcomes(t *testing.T) {
	w, _ := trace.ByName("a2time")
	seed := goldenSeed(w.Name)
	mk := goldenEngines[1].mk
	const prefix = goldenInsts / 2
	ref := func(cfg Config, gen trace.Generator) stats.Run {
		return newRefPipeline(cfg, mk(seed)).Run(gen, w.Name, "outcomes")
	}
	// run simulates gen on a pooled pipeline and reports whether it
	// predicted its branches.
	run := func(t *testing.T, cfg Config, gen trace.Generator, want stats.Run) bool {
		t.Helper()
		p := Acquire(cfg, mk(seed))
		got := p.Run(gen, w.Name, "outcomes")
		live := predicted(p)
		Release(p)
		if got != want {
			t.Fatalf("run diverged from the reference\n got: %+v\nwant: %+v", got, want)
		}
		return live
	}
	cfg := DefaultConfig()
	full := ref(cfg, w.Build(goldenInsts))
	short := ref(cfg, w.Build(prefix))
	if short.BranchFlushes == 0 {
		t.Fatalf("%s mispredicts no branch in its first %d instructions", w.Name, prefix)
	}

	// At goldenInsts most workloads mispredict no branch yet, so the
	// replayed bits above are mostly zeros; at 40k every workload has
	// mispredicted branches.
	t.Run("fill then replay at 40k instructions", func(t *testing.T) {
		const n = 40_000
		for _, name := range []string{"omnetpp", "bzip2k", "mcf"} {
			w, _ := trace.ByName(name)
			seed := goldenSeed(name)
			want := newRefPipeline(cfg, mk(seed)).Run(w.Build(n), name, "outcomes")
			if want.BranchFlushes == 0 {
				t.Fatalf("%s mispredicts no branch in %d instructions", name, n)
			}
			rep := trace.Record(w.Build(n), 0, 0)
			for _, phase := range []string{"filling", "replaying"} {
				p := Acquire(cfg, mk(seed))
				got := p.Run(rep.Cursor(), name, "outcomes")
				live := predicted(p)
				Release(p)
				if got != want {
					t.Fatalf("%s: %s run diverged from the reference\n got: %+v\nwant: %+v", name, phase, got, want)
				}
				if live != (phase == "filling") {
					t.Fatalf("%s: %s run predicted live = %v", name, phase, live)
				}
			}
		}
	})

	// Synthetic streams mark every jump, call, return and indirect
	// branch taken; a converted trace need not. Either way the history
	// shifts in taken for them, replayed or predicted.
	t.Run("unconditional branches shift taken", func(t *testing.T) {
		w, _ := trace.ByName("regexp")
		seed := goldenSeed(w.Name)
		src := trace.Record(w.Build(goldenInsts), 0, 0)
		var insts []trace.Inst
		last := -1
		var in trace.Inst
		for src.Next(&in) {
			if in.IsBranch() && in.Op != trace.OpBranch {
				in.Taken = false
				last = len(insts)
			}
			insts = append(insts, in)
		}
		if last < 0 {
			t.Fatalf("%s has no unconditional branch in %d instructions", w.Name, goldenInsts)
		}
		// End the stream on one, so the final history holds it.
		insts = insts[:last+1]
		rep := trace.NewReplay(insts, src.Mem())
		want := newRefPipeline(cfg, mk(seed)).Run(trace.NewReplay(insts, src.Mem()), w.Name, "outcomes")
		var hist [2]branch.History
		for i := range hist {
			p := Acquire(cfg, mk(seed))
			got := p.Run(rep.Cursor(), w.Name, "outcomes")
			hist[i] = p.one.hist
			Release(p)
			if got != want {
				t.Fatalf("run %d diverged from the reference\n got: %+v\nwant: %+v", i, got, want)
			}
		}
		if hist[0] != hist[1] {
			t.Fatalf("replaying run ended with history %+v, the filling run with %+v", hist[1], hist[0])
		}
	})

	t.Run("prefix then full", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		if !run(t, cfg, rep.CursorN(prefix), short) {
			t.Fatal("the first run over a recording replayed outcomes")
		}
		if o := rep.BranchOutcomes(); o == nil || o.Len != prefix {
			t.Fatalf("prefix run published %+v, want %d instructions", o, prefix)
		}
		if !run(t, cfg, rep.Cursor(), full) {
			t.Fatal("a run longer than the published outcomes replayed them")
		}
		if o := rep.BranchOutcomes(); o == nil || o.Len != goldenInsts {
			t.Fatalf("full run left %+v, want its own %d instructions", o, goldenInsts)
		}
		if run(t, cfg, rep.Cursor(), full) {
			t.Fatal("a run covered by the refilled outcomes predicted live")
		}
	})

	t.Run("full then prefix", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		run(t, cfg, rep.Cursor(), full)
		o := rep.BranchOutcomes()
		if o == nil || o.Len != goldenInsts {
			t.Fatalf("full run published %+v, want %d instructions", o, goldenInsts)
		}
		if run(t, cfg, rep.CursorN(prefix), short) {
			t.Fatal("a prefix of the published outcomes predicted live")
		}
		if rep.BranchOutcomes() != o {
			t.Fatal("a replaying run replaced the published outcomes")
		}
	})

	t.Run("aborted run publishes nothing", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := Acquire(cfg, mk(seed))
		r := p.RunCtx(ctx, rep.Cursor(), w.Name, "outcomes")
		Release(p)
		if !r.Aborted {
			t.Fatal("run under a cancelled context not marked Aborted")
		}
		if o := rep.BranchOutcomes(); o != nil {
			t.Fatalf("aborted run published %+v", o)
		}
		run(t, cfg, rep.Cursor(), full)
		run(t, cfg, rep.Cursor(), full)
	})

	t.Run("other TAGE seed predicts live", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		run(t, cfg, rep.Cursor(), full)
		o := rep.BranchOutcomes()
		seeded := DefaultConfig()
		seeded.TAGE.Seed ^= 1
		if !run(t, seeded, rep.Cursor(), ref(seeded, w.Build(goldenInsts))) {
			t.Fatal("a run under another TAGE seed replayed the default configuration's outcomes")
		}
		if rep.BranchOutcomes() != o {
			t.Fatal("a run under another configuration replaced the published outcomes")
		}
	})

	t.Run("cursor past the start predicts live", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		run(t, cfg, rep.Cursor(), full)
		at := func() *trace.Replay {
			c := rep.Cursor()
			c.Advance(1000)
			return c
		}
		if !run(t, cfg, at(), ref(cfg, at())) {
			t.Fatal("a run from instruction 1000 replayed the outcomes of a run from 0")
		}
	})

	t.Run("second run without Reset predicts live", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		run(t, cfg, rep.Cursor(), full)
		smt := DefaultConfig()
		smt.Contexts = 2
		for _, c := range []struct {
			name string
			cfg  Config
			warm func(p *Pipeline)
		}{
			{"Run", cfg, func(p *Pipeline) { p.Run(w.Build(prefix), w.Name, "warm") }},
			{"RunSMT", smt, func(p *Pipeline) {
				gens := []trace.Generator{w.Build(prefix), w.Build(prefix)}
				p.RunSMT(gens, []string{w.Name, w.Name}, "warm", "warm")
			}},
		} {
			// The same two runs over a live generator, which has no
			// outcomes to replay, give the reference.
			live := New(c.cfg, mk(seed))
			c.warm(live)
			want := live.Run(w.Build(goldenInsts), w.Name, "outcomes")
			p := New(c.cfg, mk(seed))
			c.warm(p)
			warm := p.tage.StatsSnapshot().Lookups
			if got := p.Run(rep.Cursor(), w.Name, "outcomes"); got != want {
				t.Fatalf("after %s: run on warm branch predictors diverged\n got: %+v\nwant: %+v", c.name, got, want)
			}
			if p.tage.StatsSnapshot().Lookups == warm {
				t.Fatalf("after %s: a run on warm branch predictors replayed a fresh run's outcomes", c.name)
			}
		}
	})

	// Under -race this finds a slot read and published without
	// synchronization. The race detector keeps a bounded access
	// history per goroutine, so the runs are short enough that one
	// run's publication lands within that history of the other's
	// first read.
	t.Run("concurrent first runs", func(t *testing.T) {
		const n = 200
		want := ref(cfg, w.Build(n))
		for round := 0; round < 4; round++ {
			rep := trace.Record(w.Build(n), 0, 0)
			start := make(chan struct{})
			var wg sync.WaitGroup
			got := make([]stats.Run, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := Acquire(cfg, mk(seed))
					<-start
					got[i] = p.Run(rep.Cursor(), w.Name, "outcomes")
					Release(p)
				}()
			}
			close(start)
			wg.Wait()
			for i, r := range got {
				if r != want {
					t.Fatalf("concurrent run %d diverged\n got: %+v\nwant: %+v", i, r, want)
				}
			}
			if o := rep.BranchOutcomes(); o == nil || o.Len != n {
				t.Fatalf("concurrent runs left %+v, want %d instructions", o, n)
			}
			if run(t, cfg, rep.Cursor(), want) {
				t.Fatal("a run after the concurrent ones predicted live")
			}
		}
	})
}

// TestGoldenDifferentialWideWindow repeats the differential check under
// the largest window-sweep configuration (4x the Skylake-class window),
// which stresses the cycle rings' horizon sizing the hardest.
func TestGoldenDifferentialWideWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB, cfg.IQ, cfg.LDQ, cfg.STQ = 896, 388, 288, 224
	for _, name := range []string{"gcc2k", "mcf", "linpack"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		seed := goldenSeed(w.Name)
		mk := goldenEngines[1].mk // composite exercises every table
		want := newRefPipeline(cfg, mk(seed)).Run(w.Build(goldenInsts), w.Name, "wide")

		p := Acquire(cfg, mk(seed))
		got := p.Run(w.Build(goldenInsts), w.Name, "wide")
		clobbers := p.resourceClobbers()
		Release(p)

		if got != want {
			t.Fatalf("%s: wide-window run diverged\n got: %+v\nwant: %+v", w.Name, got, want)
		}
		if clobbers != 0 {
			t.Fatalf("%s: %d cycle-ring clobbers under wide window", w.Name, clobbers)
		}
	}
}

// TestRefPipelineMatchesKnownAccounting sanity-checks the frozen
// reference itself: its accounting identity must hold, so a bug pasted
// into the oracle cannot silently validate the refactor.
func TestRefPipelineMatchesKnownAccounting(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	seed := goldenSeed(w.Name)
	run := newRefPipeline(DefaultConfig(), goldenEngines[1].mk(seed)).
		Run(w.Build(goldenInsts), w.Name, "ref")
	if run.Instructions != goldenInsts {
		t.Fatalf("ref simulated %d instructions, want %d", run.Instructions, goldenInsts)
	}
	if run.CorrectPredicted+run.VPFlushes != run.PredictedLoads {
		t.Fatalf("ref accounting inconsistent: %+v", run)
	}
	if run.IPC() <= 0 || run.IPC() > float64(DefaultConfig().IssueWidth) {
		t.Fatalf("ref IPC %.3f out of range", run.IPC())
	}
	var _ stats.Run = run
}
