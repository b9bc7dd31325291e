package cpu

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// hierRef is a reference run: the frozen pipeline's metrics and its
// hierarchy's counters at the end.
type hierRef struct {
	run   stats.Run
	stats mem.HierarchyStats
}

func refHier(cfg Config, eng Engine, gen trace.Generator, name, config string) hierRef {
	r := newRefPipeline(cfg, eng)
	run := r.Run(gen, name, config)
	return hierRef{run, r.hier.Stats()}
}

// untouched reports whether no cache of h holds a line any instruction
// of rep fetches, loads or stores: a run that replayed rep's hierarchy
// outcomes leaves a reset hierarchy so, a live run never does.
func untouched(h *mem.Hierarchy, rep *trace.Replay) bool {
	resident := func(addr uint64) bool {
		return h.L1I.Peek(addr) || h.L1D.Peek(addr) || h.L2.Peek(addr) || h.L3.Peek(addr)
	}
	for _, in := range rep.Cursor().Remaining() {
		if resident(in.PC) || (in.Op == trace.OpLoad || in.Op == trace.OpStore) && resident(in.Addr) {
			return false
		}
	}
	return true
}

// runHier simulates gen on a pooled pipeline under cfg and eng, checks
// the run and the hierarchy's counters against want, and reports
// whether the run replayed rep's hierarchy outcomes.
func runHier(t *testing.T, cfg Config, eng Engine, rep *trace.Replay, gen trace.Generator, name string, want hierRef) bool {
	t.Helper()
	p := Acquire(cfg, eng)
	got := p.Run(gen, name, "hier")
	h := p.Hierarchy()
	replayed, st := untouched(h, rep), h.Stats()
	Release(p)
	if got != want.run {
		t.Fatalf("%s: run diverged from the reference\n got: %+v\nwant: %+v", name, got, want.run)
	}
	if st != want.stats {
		t.Fatalf("%s: hierarchy counters diverged from the reference\n got: %+v\nwant: %+v", name, st, want.stats)
	}
	return replayed
}

// TestGoldenHierarchyOutcomes runs every workload at 40k instructions
// three times over one recording, each against the frozen reference:
// a baseline run fills the recording's hierarchy outcomes, a second
// baseline run replays them, and an EVES run replays the baseline's,
// since neither engine reaches the caches. A replaying run leaves the
// hierarchy's lines untouched and installs the live run's counters.
// Each run has one goroutine, so under the race detector, where the
// pass takes ten times as long, ten workloads stand for the rest.
func TestGoldenHierarchyOutcomes(t *testing.T) {
	const n = 40_000
	pool := trace.Workloads()
	if testing.Short() || raceEnabled {
		pool = pool[:10]
	}
	cfg := DefaultConfig()
	base, ev := goldenEngines[0], goldenEngines[2]
	for _, w := range pool {
		seed := goldenSeed(w.Name)
		rep := trace.Record(w.Build(n), 0, 0)
		wantBase := refHier(cfg, base.mk(seed), w.Build(n), w.Name, "hier")
		wantEVES := refHier(cfg, ev.mk(seed), w.Build(n), w.Name, "hier")
		if runHier(t, cfg, base.mk(seed), rep, rep.Cursor(), w.Name, wantBase) {
			t.Fatalf("%s: the first run over a recording replayed hierarchy outcomes", w.Name)
		}
		o := rep.HierarchyOutcomes()
		if o == nil || o.Len != n {
			t.Fatalf("%s: the first run published %+v, want %d instructions", w.Name, o, n)
		}
		if !runHier(t, cfg, base.mk(seed), rep, rep.Cursor(), w.Name, wantBase) {
			t.Fatalf("%s: the baseline run after a filling one accessed the hierarchy", w.Name)
		}
		if !runHier(t, cfg, ev.mk(seed), rep, rep.Cursor(), w.Name, wantEVES) {
			t.Fatalf("%s: an EVES run over filled outcomes accessed the hierarchy", w.Name)
		}
		if rep.HierarchyOutcomes() != o {
			t.Fatalf("%s: a replaying run replaced the outcomes", w.Name)
		}
	}
}

// TestHierarchyOutcomeGuards pins when a run replays a recording's
// hierarchy outcomes and when it accesses the hierarchy, each case
// against the frozen reference: a run replays only from instruction 0,
// on a fresh pipeline, with no engine or one that never reaches the
// caches, on a window no larger than the forwarding window, under the
// hierarchy configuration and forwarding window the outcomes were
// recorded with, and over exactly the instructions they cover; only a
// complete run publishes.
func TestHierarchyOutcomeGuards(t *testing.T) {
	w, _ := trace.ByName("a2time")
	seed := goldenSeed(w.Name)
	base, comp, ev := goldenEngines[0].mk, goldenEngines[1].mk, goldenEngines[2].mk
	const prefix = goldenInsts / 2
	cfg := DefaultConfig()
	ref := func(cfg Config, mk func(uint64) Engine, gen trace.Generator) hierRef {
		return refHier(cfg, mk(seed), gen, w.Name, "hier")
	}
	run := func(t *testing.T, cfg Config, mk func(uint64) Engine, rep *trace.Replay, gen trace.Generator, want hierRef) bool {
		t.Helper()
		return runHier(t, cfg, mk(seed), rep, gen, w.Name, want)
	}
	cursor := func(rep *trace.Replay) func() trace.Generator {
		return func() trace.Generator { return rep.Cursor() }
	}
	full := ref(cfg, base, w.Build(goldenInsts))
	// filled records a2time and fills its slot with a baseline run.
	filled := func(t *testing.T) (*trace.Replay, *trace.HierarchyOutcomes) {
		t.Helper()
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		if run(t, cfg, base, rep, rep.Cursor(), full) {
			t.Fatal("the first run over a recording replayed hierarchy outcomes")
		}
		o := rep.HierarchyOutcomes()
		if o == nil || o.Len != goldenInsts {
			t.Fatalf("the first run published %+v, want %d instructions", o, goldenInsts)
		}
		return rep, o
	}
	// live checks that a run accesses the hierarchy and leaves rep's
	// slot holding o.
	live := func(t *testing.T, cfg Config, mk func(uint64) Engine, rep *trace.Replay, o *trace.HierarchyOutcomes, gen func() trace.Generator) {
		t.Helper()
		if run(t, cfg, mk, rep, gen(), ref(cfg, mk, gen())) {
			t.Fatal("the run replayed the recording's hierarchy outcomes")
		}
		if rep.HierarchyOutcomes() != o {
			t.Fatal("the run replaced the recording's hierarchy outcomes")
		}
	}

	t.Run("replay installs the live run's counters", func(t *testing.T) {
		rep, _ := filled(t)
		if !run(t, cfg, base, rep, rep.Cursor(), full) {
			t.Fatal("a run covered by the outcomes accessed the hierarchy")
		}
		if full.stats.L1D.Misses == 0 || full.stats.L1I.Misses == 0 || full.stats.TLB.Misses == 0 || full.stats.Prefetch.Issued == 0 {
			t.Fatalf("%s leaves a counter at zero in %d instructions: %+v", w.Name, goldenInsts, full.stats)
		}
	})

	t.Run("another hierarchy configuration", func(t *testing.T) {
		rep, o := filled(t)
		other := cfg
		other.Hierarchy.L2.Latency++
		if ref(other, base, w.Build(goldenInsts)) == full {
			t.Fatalf("%s runs the same with an L2 latency of %d and %d", w.Name, other.Hierarchy.L2.Latency, cfg.Hierarchy.L2.Latency)
		}
		live(t, other, base, rep, o, cursor(rep))
	})

	t.Run("another forwarding window", func(t *testing.T) {
		rep, o := filled(t)
		other := cfg
		other.STQ++
		live(t, other, ev, rep, o, cursor(rep))
	})

	t.Run("composite engine", func(t *testing.T) {
		rep, o := filled(t)
		live(t, cfg, comp, rep, o, cursor(rep))
		fresh := trace.Record(w.Build(goldenInsts), 0, 0)
		live(t, cfg, comp, fresh, nil, cursor(fresh))
	})

	// At 40k instructions nat has a load that a store more than 4·STQ
	// instructions older flushes under one engine's timing and not under
	// another's, so the two runs ask different things of the caches.
	t.Run("window larger than the forwarding window", func(t *testing.T) {
		const n = 40_000
		w, _ := trace.ByName("nat")
		seed := goldenSeed(w.Name)
		wide := cfg
		wide.ROB, wide.IQ, wide.LDQ, wide.STQ = 448, 194, 144, 28
		rep := trace.Record(w.Build(n), 0, 0)
		for _, mk := range []func(uint64) Engine{base, ev} {
			want := refHier(wide, mk(seed), w.Build(n), w.Name, "hier")
			if runHier(t, wide, mk(seed), rep, rep.Cursor(), w.Name, want) {
				t.Fatal("a run on a window larger than the forwarding window replayed hierarchy outcomes")
			}
			if o := rep.HierarchyOutcomes(); o != nil {
				t.Fatalf("a run on a window larger than the forwarding window published %+v", o)
			}
		}
	})

	// The cursor's remaining instructions are as many as the outcomes
	// cover, so only the start guards the slot.
	t.Run("cursor past the start", func(t *testing.T) {
		const skip = 1000
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		run(t, cfg, base, rep, rep.CursorN(goldenInsts-skip), ref(cfg, base, w.Build(goldenInsts-skip)))
		o := rep.HierarchyOutcomes()
		if o == nil || o.Len != goldenInsts-skip {
			t.Fatalf("the prefix run published %+v, want %d instructions", o, goldenInsts-skip)
		}
		live(t, cfg, base, rep, o, func() trace.Generator {
			c := rep.Cursor()
			c.Advance(skip)
			return c
		})
	})

	// The same two runs over a live generator, which has no outcomes
	// to replay, give the reference.
	t.Run("second run without Reset", func(t *testing.T) {
		rep, o := filled(t)
		lv := New(cfg, nil)
		lv.Run(w.Build(prefix), w.Name, "warm")
		want := lv.Run(w.Build(goldenInsts), w.Name, "hier")
		p := New(cfg, nil)
		p.Run(w.Build(prefix), w.Name, "warm")
		got := p.Run(rep.Cursor(), w.Name, "hier")
		if got != want || p.Hierarchy().Stats() != lv.Hierarchy().Stats() {
			t.Fatalf("a run on a warm hierarchy diverged\n got: %+v %+v\nwant: %+v %+v",
				got, p.Hierarchy().Stats(), want, lv.Hierarchy().Stats())
		}
		if rep.HierarchyOutcomes() != o {
			t.Fatal("a run on a warm hierarchy replaced the outcomes")
		}
	})

	t.Run("shorter prefix", func(t *testing.T) {
		rep, o := filled(t)
		live(t, cfg, ev, rep, o, func() trace.Generator { return rep.CursorN(prefix) })
	})

	t.Run("longer run refills", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		short := ref(cfg, base, w.Build(prefix))
		if run(t, cfg, base, rep, rep.CursorN(prefix), short) {
			t.Fatal("the first run over a recording replayed hierarchy outcomes")
		}
		if o := rep.HierarchyOutcomes(); o == nil || o.Len != prefix {
			t.Fatalf("the prefix run published %+v, want %d instructions", o, prefix)
		}
		if run(t, cfg, base, rep, rep.Cursor(), full) {
			t.Fatal("a run longer than the outcomes replayed them")
		}
		if o := rep.HierarchyOutcomes(); o == nil || o.Len != goldenInsts {
			t.Fatalf("the full run left %+v, want its own %d instructions", o, goldenInsts)
		}
		if !run(t, cfg, base, rep, rep.Cursor(), full) {
			t.Fatal("a run covered by the refilled outcomes accessed the hierarchy")
		}
	})

	t.Run("aborted run publishes nothing", func(t *testing.T) {
		rep := trace.Record(w.Build(goldenInsts), 0, 0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := Acquire(cfg, base(seed))
		r := p.RunCtx(ctx, rep.Cursor(), w.Name, "hier")
		Release(p)
		if !r.Aborted {
			t.Fatal("run under a cancelled context not marked Aborted")
		}
		if o := rep.HierarchyOutcomes(); o != nil {
			t.Fatalf("aborted run published %+v", o)
		}
		if run(t, cfg, base, rep, rep.Cursor(), full) {
			t.Fatal("the run after an aborted one replayed hierarchy outcomes")
		}
		if !run(t, cfg, base, rep, rep.Cursor(), full) {
			t.Fatal("the run after a filling one accessed the hierarchy")
		}
	})

	// Under -race this finds a slot read and published without
	// synchronization (see TestGoldenBranchOutcomes).
	t.Run("concurrent first runs", func(t *testing.T) {
		const n = 200
		want := ref(cfg, ev, w.Build(n))
		for round := 0; round < 4; round++ {
			rep := trace.Record(w.Build(n), 0, 0)
			start := make(chan struct{})
			var wg sync.WaitGroup
			got := make([]stats.Run, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := Acquire(cfg, ev(seed))
					<-start
					got[i] = p.Run(rep.Cursor(), w.Name, "hier")
					Release(p)
				}()
			}
			close(start)
			wg.Wait()
			for i, r := range got {
				if r != want.run {
					t.Fatalf("concurrent run %d diverged\n got: %+v\nwant: %+v", i, r, want.run)
				}
			}
			if o := rep.HierarchyOutcomes(); o == nil || o.Len != n {
				t.Fatalf("concurrent runs left %+v, want %d instructions", o, n)
			}
			if !run(t, cfg, ev, rep, rep.Cursor(), want) {
				t.Fatal("a run after the concurrent ones accessed the hierarchy")
			}
		}
	})
}

// TestRunAfterReplayNeedsReset pins that a run on a pipeline whose last
// run replayed a recording's outcomes, without a Reset in between,
// panics instead of silently starting from the untrained branch
// predictors and caches the replay left; the same runs after a live run
// keep their warm state (TestGoldenBranchOutcomes, TestMixOutcomeGuards).
func TestRunAfterReplayNeedsReset(t *testing.T) {
	const n = 5000
	w, _ := trace.ByName("omnetpp")
	seed := goldenSeed(w.Name)
	next := []struct {
		name string
		run  func(p *Pipeline)
	}{
		{"Run", func(p *Pipeline) { p.Run(w.Build(n), w.Name, "next") }},
		{"RunSMT", func(p *Pipeline) {
			p.RunSMT([]trace.Generator{w.Build(n)}, []string{w.Name}, "next", "next")
		}},
	}
	mustPanic := func(t *testing.T, what string, run func(p *Pipeline), p *Pipeline) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s without Reset after a replaying run did not panic", what)
			}
			if msg, _ := r.(string); !strings.Contains(msg, "Reset") {
				t.Fatalf("%s panicked with %v, which does not name Reset", what, r)
			}
		}()
		run(p)
	}
	for _, eng := range goldenEngines {
		t.Run(eng.name, func(t *testing.T) {
			rep := trace.Record(w.Build(n), 0, 0)
			p := Acquire(DefaultConfig(), eng.mk(seed))
			p.Run(rep.Cursor(), w.Name, "fill")
			Release(p)
			for _, c := range next {
				p := New(DefaultConfig(), eng.mk(seed))
				p.Run(rep.Cursor(), w.Name, "replay")
				if predicted(p) {
					t.Fatal("the run after a filling one predicted its branches")
				}
				mustPanic(t, c.name, c.run, p)
				// Reset makes the pipeline usable again.
				p.Reset(DefaultConfig(), eng.mk(seed))
				c.run(p)
			}
		})
	}
	// Under another TAGE configuration the run predicts its branches
	// but still replays the hierarchy's outcomes.
	t.Run("after a hierarchy replay alone", func(t *testing.T) {
		rep := trace.Record(w.Build(n), 0, 0)
		p := Acquire(DefaultConfig(), nil)
		p.Run(rep.Cursor(), w.Name, "fill")
		Release(p)
		other := DefaultConfig()
		other.TAGE.UseAltBits = 1
		p = New(other, nil)
		p.Run(rep.Cursor(), w.Name, "replay")
		if !predicted(p) || !untouched(p.Hierarchy(), rep) {
			t.Fatal("the run did not replay the hierarchy alone")
		}
		mustPanic(t, "Run", next[0].run, p)
	})
	t.Run("after a mix", func(t *testing.T) {
		names := []string{"a2time", "gcc2k"}
		cfg := smtConfig(2, 0)
		m := recordMix(t, names, n)
		p := Acquire(cfg, goldenEngines[1].mk(seed))
		runSMT(p, m.cursors(), m.streams)
		Release(p)
		for _, c := range []struct {
			name string
			run  func(p *Pipeline)
		}{
			{"Run", next[0].run},
			{"RunSMT", func(p *Pipeline) { p.RunSMT(hide(m.cursors()), m.streams, "next", "next") }},
		} {
			p := New(cfg, goldenEngines[1].mk(seed))
			if runSMT(p, m.cursors(), m.streams).live {
				t.Fatal("the run after a filling one predicted its branches")
			}
			mustPanic(t, c.name, c.run, p)
		}
	})
}
