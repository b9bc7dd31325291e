package cpu

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// kernelKinds lists trace.NewSingleKernel's kinds.
var kernelKinds = []string{
	"const", "stride", "seqchase", "chase", "indirect", "ctxvalue",
	"callsite", "listing1", "flaky", "ringbuf", "storeupdate", "random",
}

// pathCase is one decoded FuzzPipelinePaths input: a machine, an
// engine, and one stream per context.
type pathCase struct {
	cfg     Config
	other   Config // the configuration a pooled pipeline ran before cfg
	eng     int    // index into goldenEngines
	seed    uint64
	streams []string
	lens    []uint64
	build   []func() trace.Generator // a fresh live generator per context
}

// decodePathCase turns fuzz inputs into a case. src picks a workload,
// whose context i runs salt+i, or a single kernel, whose context i is
// seeded salt+i; context i runs 1 + (n + i·spread) mod 4000
// instructions. machine and more pick Config deltas inside what
// spec.MachineSpec.Validate accepts; the quantum ranges over 0–300,
// wider than the spec's 1 and 64.
func decodePathCase(src, salt uint8, n, spread uint16, contexts uint8, quantum uint16, machine, more uint64, engine uint8) pathCase {
	k := 1 + int(contexts%4)
	c := pathCase{eng: int(engine) % len(goldenEngines)}
	cfg := DefaultConfig()
	m := machine
	if m&1 != 0 {
		cfg.ROB = 1 + int(m>>1&1023)
		cfg.IQ = 1 + int(m>>11&511)
		cfg.LDQ = 1 + int(m>>20&255)
		cfg.STQ = 1 + int(m>>28&255)
	}
	if m>>36&1 != 0 {
		cfg.FetchWidth = 1 + int(m>>37&7)
		cfg.IssueWidth = 1 + int(m>>40&15)
		cfg.CommitWidth = 1 + int(m>>44&15)
		cfg.LSLanes = 1 + int(m>>48&3)
	}
	if m>>50&1 != 0 {
		cfg.PAQDepth = int(m >> 51 & 63) // 0 = unbounded
	}
	cfg.PAQPrefetchOnMiss = cfg.PAQPrefetchOnMiss != (m>>57&1 != 0)
	cfg.SuppressStoreConflicts = cfg.SuppressStoreConflicts != (m>>58&1 != 0)
	cfg.ReplayRecovery = m>>59&1 != 0
	if m>>60&1 != 0 {
		cfg.Hierarchy.MemLatency = []int{20, 100, 400, 512}[m>>61&3]
	}
	if more&1 != 0 {
		cfg.FetchToExec = 1 + int(more>>1&63)
		cfg.StoreForwardLat = 1 + int(more>>7&63)
		cfg.ReplayPenalty = 1 + int(more>>13&63)
	}
	if more>>19&1 != 0 {
		cfg.Hierarchy.L1D.SizeBytes = []int{16, 32, 64, 128}[more>>20&3] << 10
		cfg.Hierarchy.L2.SizeBytes = []int{128, 256, 512, 1024}[more>>22&3] << 10
		cfg.Hierarchy.L3.SizeBytes = []int{1024, 2048, 4096, 8192}[more>>24&3] << 10
	}
	if more>>26&1 != 0 {
		cfg.Hierarchy.PrefetchDegree = 1 + int(more>>27&15)
		cfg.Hierarchy.PrefetchEnabled = more>>31&1 == 0
	}
	cfg.Contexts = k
	cfg.SMTQuantum = int(quantum % 301)
	c.cfg = cfg
	// The pooled pipeline ran another context count before, and, when
	// asked, another window too, so Reset rebuilds it.
	c.other = cfg
	c.other.Contexts = 1 + k%4
	if more>>32&1 != 0 {
		c.other.ROB = 1 + cfg.ROB%1024
	}

	ws := trace.Workloads()
	pick := int(src) % (len(ws) + len(kernelKinds))
	c.seed = goldenSeed(ws[pick%len(ws)].Name)
	for i := 0; i < k; i++ {
		insts := uint64(1 + (int(n)+i*int(spread))%4000)
		c.lens = append(c.lens, insts)
		if pick < len(ws) {
			stream := trace.StreamName(ws[pick].Name, int(salt)+i)
			c.streams = append(c.streams, stream)
			c.build = append(c.build, func() trace.Generator {
				g, _ := trace.BuildStream(stream, insts)
				return g
			})
			continue
		}
		kind := kernelKinds[pick-len(ws)]
		seed := uint64(salt) + uint64(i)
		c.streams = append(c.streams, trace.StreamName(kind, int(seed)))
		c.build = append(c.build, func() trace.Generator {
			return trace.NewSingleKernel(kind, insts, seed)
		})
	}
	return c
}

// live returns a fresh live generator per context.
func (c pathCase) live() []trace.Generator {
	gens := make([]trace.Generator, len(c.build))
	for i, b := range c.build {
		gens[i] = b()
	}
	return gens
}

// engine returns a fresh engine for the case.
func (c pathCase) engine() Engine { return goldenEngines[c.eng].mk(c.seed) }

// pathRun is what one path made of a case: the merged run, the
// per-context runs and the hierarchy's counters.
type pathRun struct {
	merged stats.Run
	per    []stats.Run
	hier   mem.HierarchyStats
}

func (r pathRun) equal(o pathRun) bool {
	return r.merged == o.merged && slices.Equal(r.per, o.per) && r.hier == o.hier
}

// run simulates gens on p, through Run when alone is set (context 0
// only) and RunSMT otherwise, and checks the invariants every run
// keeps: each context ran its whole stream, the merged run is the
// contexts' accumulation, no cycle ring clobbered a live claim, and no
// context validated more predictions than it delivered or delivered
// more than it had loads.
func (c pathCase) run(t *testing.T, path string, p *Pipeline, gens []trace.Generator, alone bool) pathRun {
	t.Helper()
	var r pathRun
	if alone {
		r.merged = p.Run(gens[0], c.streams[0], "fuzz")
		r.merged.Workload = "mix"
	} else {
		r.merged = p.RunSMT(gens, c.streams, "mix", "fuzz")
	}
	for i := range gens {
		r.per = append(r.per, p.ContextRun(i))
	}
	r.hier = p.Hierarchy().Stats()
	sum := stats.Run{Workload: "mix", Config: "fuzz"}
	for i, pc := range r.per {
		if pc.Instructions != c.lens[i] {
			t.Fatalf("%s: context %d ran %d instructions of its %d", path, i, pc.Instructions, c.lens[i])
		}
		if pc.CorrectPredicted > pc.PredictedLoads || pc.PredictedLoads > pc.Loads {
			t.Fatalf("%s: context %d validated %d of %d predictions over %d loads", path, i, pc.CorrectPredicted, pc.PredictedLoads, pc.Loads)
		}
		stats.Accumulate(&sum, pc)
	}
	if sum != r.merged {
		t.Fatalf("%s: merged run %+v, the contexts accumulate to %+v", path, r.merged, sum)
	}
	if n := p.resourceClobbers(); n != 0 {
		t.Fatalf("%s: %d cycle-ring clobbers", path, n)
	}
	return r
}

// FuzzPipelinePaths runs one input through every path a result can
// come from and requires the same merged and per-context runs and the
// same hierarchy counters from each: live generators on a new
// pipeline; a filling and then a replaying run over recordings of the
// same streams, pooled; and a replaying run on a pipeline Reset from
// another configuration after a live run there. A one-context input
// also runs through Run and RunSMT alike, and must equal the frozen
// reference pipeline.
func FuzzPipelinePaths(f *testing.F) {
	// src, salt, n, spread, contexts, quantum, machine, more, engine
	f.Add(uint8(0), uint8(0), uint16(2999), uint16(0), uint8(0), uint16(0), uint64(0), uint64(0), uint8(2))
	f.Add(uint8(7), uint8(1), uint16(1500), uint16(977), uint8(3), uint16(0), uint64(0), uint64(1<<32), uint8(1))
	f.Add(uint8(3), uint8(3), uint16(2000), uint16(300), uint8(2), uint16(257), uint64(1)|uint64(447)<<1|uint64(193)<<11|uint64(143)<<20|uint64(111)<<28, uint64(1), uint8(1))
	f.Add(uint8(92), uint8(2), uint16(3999), uint16(1), uint8(1), uint16(63), uint64(1)<<36|uint64(1)<<50|uint64(1)<<59|uint64(7)<<60, uint64(1)<<19|uint64(1)<<26, uint8(1))
	f.Fuzz(func(t *testing.T, src, salt uint8, n, spread uint16, contexts uint8, quantum uint16, machine, more uint64, engine uint8) {
		c := decodePathCase(src, salt, n, spread, contexts, quantum, machine, more, engine)
		alone := len(c.streams) == 1

		want := c.run(t, "live", New(c.cfg, c.engine()), c.live(), alone)
		if alone {
			ref := newRefPipeline(c.cfg, c.engine())
			r := ref.Run(c.build[0](), c.streams[0], "fuzz")
			merged := r
			merged.Workload = "mix"
			if reference := (pathRun{merged, []stats.Run{r}, ref.hier.Stats()}); !reference.equal(want) {
				t.Fatalf("live run diverged from the reference\n got: %+v\nwant: %+v", want, reference)
			}
			if got := c.run(t, "live RunSMT", New(c.cfg, c.engine()), c.live(), false); !got.equal(want) {
				t.Fatalf("1-context RunSMT diverged from Run\n got: %+v\nwant: %+v", got, want)
			}
		}

		recs := make([]*trace.Replay, len(c.build))
		for i, b := range c.build {
			recs[i] = trace.Record(b(), 0, 0)
		}
		cursors := func() []trace.Generator {
			gens := make([]trace.Generator, len(recs))
			for i, r := range recs {
				gens[i] = r.Cursor()
			}
			return gens
		}
		for _, path := range []string{"filling", "replaying"} {
			p := Acquire(c.cfg, c.engine())
			got := c.run(t, path, p, cursors(), alone)
			Release(p)
			if !got.equal(want) {
				t.Fatalf("%s run over recordings diverged from live generators\n got: %+v\nwant: %+v", path, got, want)
			}
		}

		p := New(c.other, goldenEngines[(c.eng+1)%len(goldenEngines)].mk(c.seed))
		warm := make([]trace.Generator, c.other.Contexts)
		for i := range warm {
			warm[i] = c.build[i%len(c.build)]()
		}
		p.RunSMT(warm, make([]string, len(warm)), "warm", "warm")
		p.Reset(c.cfg, c.engine())
		if got := c.run(t, "reset", p, cursors(), alone); !got.equal(want) {
			t.Fatalf("run on a pipeline Reset from another configuration diverged\n got: %+v\nwant: %+v", got, want)
		}
	})
}
