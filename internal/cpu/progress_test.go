package cpu

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestProgressSnapshotMatchesFinalRun(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	c := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewMAMEpoch(10_000),
	})
	eng := NewCompositeEngine(c)
	p := New(DefaultConfig(), eng)
	var pr Progress
	p.SetProgress(&pr, 1000)
	run := p.Run(w.Build(testInsts), "gcc2k", "probe")

	s, ok := pr.Load()
	if !ok {
		t.Fatal("no snapshot published")
	}
	// The final publication covers the whole run.
	if s.Instructions != run.Instructions {
		t.Errorf("snapshot instructions = %d, run = %d", s.Instructions, run.Instructions)
	}
	if s.Cycles != run.Cycles {
		t.Errorf("snapshot cycles = %d, run = %d", s.Cycles, run.Cycles)
	}
	if s.Loads != run.Loads || s.PredictedLoads != run.PredictedLoads ||
		s.CorrectPredicted != run.CorrectPredicted || s.VPFlushes != run.VPFlushes {
		t.Errorf("snapshot counters %+v do not match run %+v", s, run)
	}
	st := c.Stats()
	if s.Used != st.UsedBy || s.Correct != st.CorrectBy || s.Incorrect != st.IncorrectBy {
		t.Errorf("snapshot components %+v do not match composite stats", s)
	}
	if s.UpdatedNano < s.StartedNano || s.StartedNano == 0 {
		t.Errorf("bad timestamps: started %d updated %d", s.StartedNano, s.UpdatedNano)
	}
	if s.SimMIPS() <= 0 {
		t.Errorf("SimMIPS = %g, want > 0", s.SimMIPS())
	}
}

// samplingGen wraps a generator and reads the progress slot on every
// Next call — the deterministic equivalent of a concurrent observer
// (the slot is also read concurrently in TestProgressSeqlockConsistency).
type samplingGen struct {
	trace.Generator
	pr     *Progress
	total  uint64
	midRun bool
}

func (g *samplingGen) Next(in *trace.Inst) bool {
	if s, ok := g.pr.Load(); ok && s.Instructions > 0 && s.Instructions < g.total {
		g.midRun = true
	}
	return g.Generator.Next(in)
}

func TestProgressPublishesMidRun(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	p := New(DefaultConfig(), nil)
	var pr Progress
	p.SetProgress(&pr, 1000)

	gen := &samplingGen{Generator: w.Build(testInsts), pr: &pr, total: testInsts}
	p.Run(gen, "gcc2k", "probe")
	if !gen.midRun {
		t.Error("no mid-run snapshot observed (cadence 1000 over 60k instructions)")
	}
}

func TestProgressSeqlockConsistency(t *testing.T) {
	// Hammer one slot from a writer and several readers; every
	// successful Load must be internally consistent (the writer
	// publishes snapshots whose fields are all equal to the sequence
	// number, so any mix of two publications is detectable).
	var pr Progress
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, ok := pr.Load()
				if !ok {
					continue
				}
				if s.Cycles != s.Instructions || s.Loads != s.Instructions ||
					s.Used[0] != s.Instructions || s.MPKP[3] != float64(s.Instructions) {
					panic("torn snapshot")
				}
			}
		}()
	}
	for i := uint64(1); i <= 200_000; i++ {
		s := ProgressSnapshot{Instructions: i, Cycles: i, Loads: i}
		s.Used[0] = i
		s.MPKP[3] = float64(i)
		pr.publish(&s)
	}
	close(stop)
	wg.Wait()
}

func TestProgressClear(t *testing.T) {
	var pr Progress
	pr.publish(&ProgressSnapshot{Instructions: 42})
	if _, ok := pr.Load(); !ok {
		t.Fatal("published snapshot not loadable")
	}
	pr.Clear()
	if s, ok := pr.Load(); ok {
		t.Fatalf("cleared slot still loads %+v", s)
	}
	pr.publish(&ProgressSnapshot{Instructions: 7})
	if s, ok := pr.Load(); !ok || s.Instructions != 7 {
		t.Fatalf("slot unusable after clear: %+v ok=%v", s, ok)
	}
}

func TestResetDetachesProgress(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	p := New(DefaultConfig(), nil)
	var pr Progress
	p.SetProgress(&pr, 1000)
	p.Run(w.Build(5_000), "gcc2k", "probe")
	s1, _ := pr.Load()

	p.Reset(DefaultConfig(), nil)
	p.Run(w.Build(5_000), "gcc2k", "probe")
	s2, ok := pr.Load()
	if !ok || s2 != s1 {
		t.Error("reset pipeline still published into the detached slot")
	}
}

// TestProgressProbeZeroAlloc is the hard form of the bench gate: a
// steady-state run with the probe attached and a tight publication
// cadence must allocate nothing, same as a run without it.
func TestProgressProbeZeroAlloc(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	const n = 20_000
	rep := trace.Record(w.Build(n), 0, 0)
	c := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1, AM: core.NewMAMEpoch(5_000),
	})
	eng := NewCompositeEngine(c)
	cfg := DefaultConfig()
	p := Acquire(cfg, eng)
	defer Release(p)
	var pr Progress

	run := func() {
		rep.Rewind()
		c.ResetState()
		p.Reset(cfg, eng)
		p.SetProgress(&pr, 512)
		if r := p.Run(rep, "gcc2k", "bench"); r.Instructions != n {
			t.Fatalf("short run: %+v", r)
		}
	}
	run() // warm the pooled pipeline's simulated memory image
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Fatalf("probed steady-state run allocates %g objects/run, want 0", allocs)
	}
}
