package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// snapshotRecorder wraps a composite and checks that every Outcome it
// is trained with carries the PC, BranchHist and LoadPath of the Probe
// that preceded it.
type snapshotRecorder struct {
	*core.Composite
	t      *testing.T
	last   core.Probe
	probes int
	trains int
}

func (r *snapshotRecorder) Probe(p core.Probe) core.Lookup {
	r.last = p
	r.probes++
	return r.Composite.Probe(p)
}

func (r *snapshotRecorder) Train(o core.Outcome, lk *core.Lookup, v core.Validation) {
	r.trains++
	if o.PC != r.last.PC || o.BranchHist != r.last.BranchHist || o.LoadPath != r.last.LoadPath {
		r.t.Fatalf("training %d: outcome (pc %#x, hist %#x, path %#x) differs from its probe (pc %#x, hist %#x, path %#x)",
			r.trains, o.PC, o.BranchHist, o.LoadPath, r.last.PC, r.last.BranchHist, r.last.LoadPath)
	}
	r.Composite.Train(o, lk, v)
}

// TestVPsecTrainsWithProbeSnapshot pins core.Probe's contract in the
// vpsec experiment's loop: CAP hashes the load path, so training with
// the path advanced past the load would update a different entry than
// the one that predicted.
func TestVPsecTrainsWithProbeSnapshot(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	const insts = 20_000
	rec := &snapshotRecorder{
		Composite: core.NewComposite(core.CompositeConfig{Entries: core.HomogeneousEntries(256), Seed: 1}),
		t:         t,
	}
	st := vpsecDrive(rec, w.Build(insts), insts, 1, 100)
	if rec.trains == 0 || rec.trains != rec.probes {
		t.Fatalf("probes %d, trains %d: want every probed load trained once", rec.probes, rec.trains)
	}
	if st.Checked == 0 {
		t.Fatal("the detector checked no loads")
	}
}
