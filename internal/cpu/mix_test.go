package cpu

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// mixesOf cuts names into mixes of k contexts, wrapping around at the
// end, so every name runs in some mix.
func mixesOf(names []string, k int) [][]string {
	var mixes [][]string
	for start := 0; start < len(names); start += k {
		mix := make([]string, k)
		for i := range mix {
			mix[i] = names[(start+i)%len(names)]
		}
		mixes = append(mixes, mix)
	}
	return mixes
}

// recMix holds one recording per context: context i's is the first n
// instructions of stream trace.StreamName(names[i], i).
type recMix struct {
	streams []string
	recs    []*trace.Replay
}

func recordMix(t *testing.T, names []string, n uint64) recMix {
	t.Helper()
	m := recMix{streams: make([]string, len(names)), recs: make([]*trace.Replay, len(names))}
	for i, name := range names {
		m.streams[i] = trace.StreamName(name, i)
		g, ok := trace.BuildStream(m.streams[i], n)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		m.recs[i] = trace.Record(g, 0, 0)
	}
	return m
}

// cursors returns a fresh cursor over every recording.
func (m recMix) cursors() []trace.Generator {
	gens := make([]trace.Generator, len(m.recs))
	for i, r := range m.recs {
		gens[i] = r.Cursor()
	}
	return gens
}

// liveGen hides a recording cursor's type, so a run treats it as a live
// generator: it copies each instruction out through Next and predicts
// every branch.
type liveGen struct{ trace.Generator }

// hide wraps every generator as a live one.
func hide(gens []trace.Generator) []trace.Generator {
	out := make([]trace.Generator, len(gens))
	for i, g := range gens {
		out[i] = liveGen{g}
	}
	return out
}

// smtRun is an interleaved run's outcome: the merged and per-context
// runs, and whether it predicted its branches.
type smtRun struct {
	merged stats.Run
	per    []stats.Run
	live   bool
}

func (r smtRun) equal(o smtRun) bool {
	return r.merged == o.merged && slices.Equal(r.per, o.per)
}

func runSMT(p *Pipeline, gens []trace.Generator, streams []string) smtRun {
	r := smtRun{merged: p.RunSMT(gens, streams, "mix", "cfg"), live: predicted(p)}
	for i := 0; i < p.NumContexts(); i++ {
		r.per = append(r.per, p.ContextRun(i))
	}
	return r
}

// sameMix reports whether o covers exactly the recordings gens read,
// in context order and at their lengths.
func sameMix(o *trace.BranchOutcomes, gens []trace.Generator) bool {
	return len(gens) > 1 && covers(o, gens)
}

// TestGoldenMixDifferential pins interleaved runs over recordings to
// interleaved runs over live generators, merged and per context, for
// every engine, two and four contexts, and both interleave policies
// (rr, and block's 64-instruction quantum), on mixes that together run
// one workload per profile and a2time. The first run over a mix
// predicts its branches and publishes their outcomes on context 0's
// recording; the second replays them without a TAGE lookup. Every
// context mispredicts some branch, so the replayed bits are not all
// zero.
func TestGoldenMixDifferential(t *testing.T) {
	const n = 40_000
	sample := profileSample()
	for _, eng := range goldenEngines {
		for _, k := range []int{2, 4} {
			for _, quantum := range []int{0, 64} {
				cfg := smtConfig(k, quantum)
				t.Run(fmt.Sprintf("%s/%dctx/q%d", eng.name, k, quantum), func(t *testing.T) {
					for _, names := range mixesOf(sample, k) {
						m := recordMix(t, names, n)
						seed := goldenSeed(names[0])
						live := make([]trace.Generator, k)
						for i, s := range m.streams {
							live[i], _ = trace.BuildStream(s, n)
						}
						want := runSMT(New(cfg, eng.mk(seed)), live, m.streams)
						for i, r := range want.per {
							if r.BranchFlushes == 0 {
								t.Fatalf("%v: context %d mispredicts no branch in %d instructions", names, i, n)
							}
						}
						for _, phase := range []string{"filling", "replaying"} {
							p := Acquire(cfg, eng.mk(seed))
							gens := m.cursors()
							got := runSMT(p, gens, m.streams)
							for i, s := range p.ctxs {
								if pos := gens[i].(*trace.Replay).Pos(); pos != n || s.insts != nil {
									t.Fatalf("%v: after the %s run context %d's cursor is at %d of %d, and the pipeline holds %d of its instructions",
										names, phase, i, pos, n, len(s.insts))
								}
							}
							Release(p)
							if !got.equal(want) {
								t.Fatalf("%v: %s run over recordings diverged from live generators\n got: %+v\nwant: %+v",
									names, phase, got, want)
							}
							if got.live != (phase == "filling") {
								t.Fatalf("%v: %s run predicted live = %v", names, phase, got.live)
							}
							o := m.recs[0].BranchOutcomes(k)
							if o == nil || len(o.Lens) != k {
								t.Fatalf("%v: after the %s run context 0's recording holds %+v", names, phase, o)
							}
							for i, id := range o.Recordings {
								if id != m.recs[i].ID() || o.Lens[i] != n {
									t.Fatalf("%v: published context %d is %v at %d instructions, want %v at %d",
										names, i, id, o.Lens[i], m.recs[i].ID(), n)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestMixOutcomeGuards pins when an interleaved run replays a mix's
// branch outcomes: only on a fresh pipeline, with every context a
// recording cursor at its first instruction, over exactly the
// recordings, order and lengths the outcomes were computed for, under
// the same quantum and branch configuration. Every other run predicts
// live, equals the same run over live generators, and leaves the slot
// alone, except that a complete run over another mix under the same
// configuration replaces it.
func TestMixOutcomeGuards(t *testing.T) {
	const n = 10_000
	names := []string{"a2time", "gcc2k", "mcf", "omnetpp"}
	cfg := smtConfig(4, 0)
	mk := goldenEngines[1].mk
	seed := goldenSeed(names[0])
	// run simulates gens on a pooled pipeline, checks it against the
	// same run over live generators on a fresh pipeline, and reports
	// whether it predicted its branches.
	run := func(t *testing.T, cfg Config, streams []string, gens func() []trace.Generator) bool {
		t.Helper()
		want := runSMT(New(cfg, mk(seed)), hide(gens()), streams)
		p := Acquire(cfg, mk(seed))
		got := runSMT(p, gens(), streams)
		Release(p)
		if !got.equal(want) {
			t.Fatalf("run diverged from live generators\n got: %+v\nwant: %+v", got, want)
		}
		return got.live
	}
	// filled records the mix and fills its slot.
	filled := func(t *testing.T) recMix {
		t.Helper()
		m := recordMix(t, names, n)
		if !run(t, cfg, m.streams, m.cursors) {
			t.Fatal("the first run over a mix replayed outcomes")
		}
		if m.recs[0].BranchOutcomes(len(m.recs)) == nil {
			t.Fatal("a complete first run published nothing")
		}
		return m
	}
	// liveAlone checks that a run predicts live and leaves the slot of
	// m's lead recording as it was.
	liveAlone := func(t *testing.T, m recMix, cfg Config, streams []string, gens func() []trace.Generator) {
		t.Helper()
		held := m.recs[0].BranchOutcomes(len(m.recs))
		if !run(t, cfg, streams, gens) {
			t.Fatal("the run replayed the mix's outcomes")
		}
		if m.recs[0].BranchOutcomes(len(m.recs)) != held {
			t.Fatal("the run replaced the mix's outcomes")
		}
	}
	// replaced checks that a run predicts live, replaces the slot of
	// m's lead recording, and that the same run then replays.
	replaced := func(t *testing.T, m recMix, streams []string, gens func() []trace.Generator) {
		t.Helper()
		held := m.recs[0].BranchOutcomes(len(m.recs))
		if !run(t, cfg, streams, gens) {
			t.Fatal("a run over another mix replayed the held outcomes")
		}
		if m.recs[0].BranchOutcomes(len(m.recs)) == held {
			t.Fatal("a complete run over another mix left the held outcomes")
		}
		if run(t, cfg, streams, gens) {
			t.Fatal("a repeat of the run that replaced the outcomes predicted live")
		}
	}

	t.Run("another quantum", func(t *testing.T) {
		m := filled(t)
		liveAlone(t, m, smtConfig(4, 64), m.streams, m.cursors)
	})

	t.Run("another TAGE configuration", func(t *testing.T) {
		m := filled(t)
		other := cfg
		other.TAGE.UseAltBits = 1
		liveAlone(t, m, other, m.streams, m.cursors)
	})

	t.Run("contexts in another order", func(t *testing.T) {
		m := filled(t)
		swap := func(i, j int) ([]string, func() []trace.Generator) {
			streams := slices.Clone(m.streams)
			streams[i], streams[j] = streams[j], streams[i]
			return streams, func() []trace.Generator {
				gens := m.cursors()
				gens[i], gens[j] = gens[j], gens[i]
				return gens
			}
		}
		// Another lead: its own slot, m's stays.
		streams, gens := swap(0, 1)
		held := m.recs[0].BranchOutcomes(len(m.recs))
		if !run(t, cfg, streams, gens) {
			t.Fatal("a run led by another recording replayed outcomes")
		}
		if m.recs[0].BranchOutcomes(len(m.recs)) != held {
			t.Fatal("a run led by another recording replaced the mix's outcomes")
		}
		// The same lead: another mix of it.
		streams, gens = swap(1, 2)
		replaced(t, m, streams, gens)
	})

	t.Run("fewer contexts", func(t *testing.T) {
		m := filled(t)
		two := recMix{streams: m.streams[:2], recs: m.recs[:2]}
		held := m.recs[0].BranchOutcomes(len(m.recs))
		if !run(t, smtConfig(2, 0), two.streams, two.cursors) {
			t.Fatal("a 2-context run replayed a 4-context mix's outcomes")
		}
		if o := m.recs[0].BranchOutcomes(len(m.recs)); o == held || len(o.Lens) != 2 {
			t.Fatalf("a complete 2-context run over the lead left %+v", o)
		}
		if !run(t, cfg, m.streams, m.cursors) {
			t.Fatal("a 4-context run replayed a 2-context mix's outcomes")
		}
	})

	t.Run("one context a CursorN prefix", func(t *testing.T) {
		for _, i := range []int{0, 2} {
			m := filled(t)
			prefix := func() []trace.Generator {
				gens := m.cursors()
				gens[i] = m.recs[i].CursorN(n / 2)
				return gens
			}
			replaced(t, m, m.streams, prefix)
			replaced(t, m, m.streams, m.cursors)
		}
	})

	t.Run("aborted run publishes nothing", func(t *testing.T) {
		m := recordMix(t, names, n)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := Acquire(cfg, mk(seed))
		gens := m.cursors()
		r := p.RunSMTCtx(ctx, gens, m.streams, "mix", "cfg")
		Release(p)
		if !r.Aborted {
			t.Fatal("run under a cancelled context not marked Aborted")
		}
		for i, g := range gens {
			if pos := g.(*trace.Replay).Pos(); pos != 0 {
				t.Fatalf("a run cancelled before its first instruction moved context %d's cursor to %d", i, pos)
			}
		}
		if o := m.recs[0].BranchOutcomes(len(m.recs)); o != nil {
			t.Fatalf("aborted run published %+v", o)
		}
		if !run(t, cfg, m.streams, m.cursors) {
			t.Fatal("the run after an aborted one replayed outcomes")
		}
		if run(t, cfg, m.streams, m.cursors) {
			t.Fatal("the run after a filling one predicted live")
		}
	})

	t.Run("second run without Reset", func(t *testing.T) {
		m := filled(t)
		w, _ := trace.ByName(names[1])
		for _, c := range []struct {
			name string
			warm func(p *Pipeline)
		}{
			// Run warms the shared tables through context 0.
			{"Run", func(p *Pipeline) { p.Run(w.Build(n), w.Name, "warm") }},
			// A complete RunSMT warms them through every context.
			{"RunSMT", func(p *Pipeline) { p.RunSMT(hide(m.cursors()), m.streams, "warm", "warm") }},
			// An aborted RunSMT stops before its first instruction.
			{"aborted RunSMT", func(p *Pipeline) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				p.RunSMTCtx(ctx, hide(m.cursors()), m.streams, "warm", "warm")
			}},
		} {
			held := m.recs[0].BranchOutcomes(len(m.recs))
			live := New(cfg, mk(seed))
			c.warm(live)
			want := runSMT(live, hide(m.cursors()), m.streams)
			p := New(cfg, mk(seed))
			c.warm(p)
			warm := p.tage.StatsSnapshot().Lookups
			got := runSMT(p, m.cursors(), m.streams)
			if !got.equal(want) {
				t.Fatalf("after %s: run diverged\n got: %+v\nwant: %+v", c.name, got, want)
			}
			if p.tage.StatsSnapshot().Lookups == warm {
				t.Fatalf("after %s: a run on a used pipeline replayed a fresh run's outcomes", c.name)
			}
			if m.recs[0].BranchOutcomes(len(m.recs)) != held {
				t.Fatalf("after %s: a run on a used pipeline replaced the outcomes", c.name)
			}
		}
	})

	t.Run("a live generator in any context", func(t *testing.T) {
		m := filled(t)
		for i := range m.recs {
			liveAlone(t, m, cfg, m.streams, func() []trace.Generator {
				gens := m.cursors()
				gens[i] = liveGen{gens[i]}
				return gens
			})
		}
	})

	t.Run("cursor past the start", func(t *testing.T) {
		m := filled(t)
		for _, i := range []int{0, 3} {
			liveAlone(t, m, cfg, m.streams, func() []trace.Generator {
				gens := m.cursors()
				gens[i].(*trace.Replay).Advance(100)
				return gens
			})
		}
	})

	t.Run("a regenerated peer recording refills the slot", func(t *testing.T) {
		m := filled(t)
		regen := recordMix(t, names, n)
		m2 := recMix{streams: m.streams, recs: slices.Clone(m.recs)}
		m2.recs[1] = regen.recs[1]
		replaced(t, m2, m2.streams, m2.cursors)
		if o := m.recs[0].BranchOutcomes(len(m.recs)); o.Recordings[1] != m2.recs[1].ID() {
			t.Fatalf("the slot names recording %v for context 1, want the regenerated %v", o.Recordings[1], m2.recs[1].ID())
		}
	})
}

// TestMixSlotIsolation pins that a recording's single-context slot and
// the slot of the mixes it leads stay apart: single-context runs over
// the lead recording neither read nor replace the mix's outcomes, and
// interleaved runs leave the single-context outcomes alone.
func TestMixSlotIsolation(t *testing.T) {
	const n = 10_000
	names := []string{"a2time", "gcc2k"}
	cfg := smtConfig(2, 0)
	mk := goldenEngines[1].mk
	seed := goldenSeed(names[0])
	m := recordMix(t, names, n)
	lead := m.recs[0]
	single := func() (stats.Run, bool) {
		p := Acquire(DefaultConfig(), mk(seed))
		defer Release(p)
		return p.Run(lead.Cursor(), names[0], "cfg"), predicted(p)
	}
	mix := func() smtRun {
		p := Acquire(cfg, mk(seed))
		defer Release(p)
		return runSMT(p, m.cursors(), m.streams)
	}
	w, _ := trace.ByName(names[0])
	wantSingle := newRefPipeline(DefaultConfig(), mk(seed)).Run(w.Build(n), names[0], "cfg")
	wantMix := runSMT(New(cfg, mk(seed)), hide(m.cursors()), m.streams)

	if got := mix(); !got.equal(wantMix) || !got.live {
		t.Fatalf("filling mix run: live %v, diverged %v", got.live, !got.equal(wantMix))
	}
	mixHeld := lead.BranchOutcomes(len(m.recs))
	if lead.BranchOutcomes(1) != nil {
		t.Fatal("an interleaved run filled the single-context slot")
	}
	for i, wantLive := range []bool{true, false} {
		got, live := single()
		if got != wantSingle || live != wantLive {
			t.Fatalf("single-context run %d: live %v (want %v), diverged %v", i, live, wantLive, got != wantSingle)
		}
		if lead.BranchOutcomes(len(m.recs)) != mixHeld {
			t.Fatalf("single-context run %d replaced the mix's outcomes", i)
		}
	}
	singleHeld := lead.BranchOutcomes(1)
	if got := mix(); !got.equal(wantMix) || got.live {
		t.Fatalf("replaying mix run: live %v, diverged %v", got.live, !got.equal(wantMix))
	}
	if lead.BranchOutcomes(1) != singleHeld {
		t.Fatal("an interleaved run replaced the single-context outcomes")
	}
}

// TestMixConcurrentFirstRuns runs a new mix on two goroutines at once.
// Both runs fill, one publication stands, and a later run replays it.
// Under -race this finds a slot read and published without
// synchronization; the recordings are short enough that one run's
// publication lands within the race detector's bounded access history
// of the other's first read.
func TestMixConcurrentFirstRuns(t *testing.T) {
	const n = 200
	names := []string{"a2time", "gcc2k"}
	cfg := smtConfig(2, 0)
	mk := goldenEngines[1].mk
	seed := goldenSeed(names[0])
	for round := 0; round < 4; round++ {
		m := recordMix(t, names, n)
		want := runSMT(New(cfg, mk(seed)), hide(m.cursors()), m.streams)
		start := make(chan struct{})
		var wg sync.WaitGroup
		got := make([]smtRun, 2)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := Acquire(cfg, mk(seed))
				gens := m.cursors()
				<-start
				got[i] = runSMT(p, gens, m.streams)
				Release(p)
			}()
		}
		close(start)
		wg.Wait()
		for i, r := range got {
			if !r.equal(want) {
				t.Fatalf("concurrent run %d diverged\n got: %+v\nwant: %+v", i, r, want)
			}
		}
		o := m.recs[0].BranchOutcomes(len(m.recs))
		if o == nil || !sameMix(o, m.cursors()) {
			t.Fatalf("concurrent runs left %+v", o)
		}
		p := Acquire(cfg, mk(seed))
		r := runSMT(p, m.cursors(), m.streams)
		Release(p)
		if !r.equal(want) || r.live {
			t.Fatalf("the run after the concurrent ones: live %v, diverged %v", r.live, !r.equal(want))
		}
	}
}

// TestResetKeepsContextSlices cycles one pipeline through 1, 4, 1, 2
// and 4 contexts, as a pooled pipeline does under a sweep whose points
// alternate context counts. Every step equals a fresh pipeline's run.
// After one cycle, which builds every slice and fills every outcome
// slot, a cycle allocates nothing: no Reset rebuilds a slice, and the
// single-context runs over the 4-context mix's lead recording do not
// displace the mix's outcomes.
func TestResetKeepsContextSlices(t *testing.T) {
	const n = 5_000
	mix4 := recordMix(t, []string{"gcc2k", "mcf", "linpack", "a2time"}, n)
	mix2 := recordMix(t, []string{"mcf", "gcc2k"}, n)
	one := recMix{streams: mix4.streams[:1], recs: mix4.recs[:1]}
	newComp := func() *core.Composite {
		return core.NewComposite(core.CompositeConfig{
			Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewPCAM(64),
		})
	}
	type step struct {
		cfg  Config
		m    recMix
		gens []trace.Generator
		want smtRun
		got  smtRun
	}
	steps := []*step{
		{cfg: DefaultConfig(), m: one},
		{cfg: smtConfig(4, 0), m: mix4},
		{cfg: DefaultConfig(), m: one},
		{cfg: smtConfig(2, 64), m: mix2},
		{cfg: smtConfig(4, 0), m: mix4},
	}
	for _, s := range steps {
		s.gens = make([]trace.Generator, len(s.m.recs))
		live := make([]trace.Generator, len(s.m.recs))
		for i, r := range s.m.recs {
			s.gens[i] = r
			live[i], _ = trace.BuildStream(s.m.streams[i], n)
		}
		fresh := New(s.cfg, NewCompositeEngine(newComp()))
		if len(live) == 1 {
			s.want.merged = fresh.Run(live[0], s.m.streams[0], "cfg")
			s.want.per = []stats.Run{s.want.merged}
		} else {
			s.want = runSMT(fresh, live, s.m.streams)
		}
		s.got.per = make([]stats.Run, len(s.m.recs))
	}
	comp := newComp()
	eng := NewCompositeEngine(comp)
	p := New(DefaultConfig(), eng)
	cycle := func() {
		for _, s := range steps {
			for _, r := range s.m.recs {
				r.Rewind()
			}
			comp.ResetState()
			p.Reset(s.cfg, eng)
			if len(s.gens) == 1 {
				s.got.merged = p.Run(s.gens[0], s.m.streams[0], "cfg")
			} else {
				s.got.merged = p.RunSMT(s.gens, s.m.streams, "mix", "cfg")
			}
			for i := range s.got.per {
				s.got.per[i] = p.ContextRun(i)
			}
		}
	}
	check := func(when string) {
		for i, s := range steps {
			if !s.got.equal(s.want) {
				t.Fatalf("%s: step %d (%d contexts) diverged from a fresh pipeline\n got: %+v\nwant: %+v",
					when, i, len(s.gens), s.got, s.want)
			}
		}
	}
	cycle()
	check("first cycle")
	built := slices.Clone(p.built)
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Fatalf("a repeated cycle allocated %.1f times, want 0", allocs)
	}
	check("repeated cycle")
	if !slices.Equal(p.built, built) || len(built) != 4 {
		t.Fatalf("the pipeline holds %d slices %p after the repeated cycles, %d slices %p before", len(p.built), p.built, len(built), built)
	}
}
