package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vpsec"
)

// VPsec evaluates the fault-attack countermeasure of the paper's
// footnote 4 over the workload pool: load values are corrupted at a
// configured rate on their way to the detector, which overrules them
// when a quorum of confident predictors agrees on a different value.
// The sweep reports detection rate, exact-correction rate, and false
// positives per million clean loads for several attack intensities.
func VPsec(ctx *Context) Result {
	t := &table{header: []string{
		"Fault rate", "Loads checked", "Detection", "Exact correction", "FP per 1M clean",
	}}
	for _, rate := range []uint32{1000, 100, 20} {
		var agg vpsec.Stats
		stats := make([]vpsec.Stats, len(ctx.Pool()))
		rate := rate
		ctx.forEach(func(i int, w trace.Workload) {
			stats[i] = vpsecRun(ctx, w, rate)
		})
		for _, s := range stats {
			agg.Checked += s.Checked
			agg.FaultsInjected += s.FaultsInjected
			agg.Detected += s.Detected
			agg.Corrected += s.Corrected
			agg.Missed += s.Missed
			agg.FalsePositives += s.FalsePositives
		}
		correction := 0.0
		if agg.Detected > 0 {
			correction = float64(agg.Corrected) / float64(agg.Detected)
		}
		t.add(
			fmt.Sprintf("1/%d", rate),
			fmt.Sprint(agg.Checked),
			pctu(100*agg.DetectionRate()),
			pctu(100*correction),
			fmt.Sprintf("%.1f", 1e6*agg.FalsePositiveRate()),
		)
	}
	return Result{
		ID:    "VPsec",
		Title: "Extension: fault detection via predictor overlap (footnote 4)",
		Lines: t.lines(),
	}
}

// vpsecRun drives the composite functionally over one workload with
// fault injection on observed load values. Detection is only possible
// on loads the predictors know (a quorum exists), so the detection rate
// is bounded by multi-predictor coverage — the overlap of Figure 4 is
// exactly VPsec's protection surface.
func vpsecRun(c *Context, w trace.Workload, rate uint32) vpsec.Stats {
	comp := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256),
		Seed:    c.EngineSeedLabel(w.Name),
	})
	return vpsecDrive(comp, w.Build(c.insts), c.insts, c.seed, rate)
}

// vpsecPredictor is the part of the composite vpsecDrive uses.
type vpsecPredictor interface {
	Probe(p core.Probe) core.Lookup
	Train(o core.Outcome, lk *core.Lookup, v core.Validation)
}

// vpsecDrive runs gen's loads through comp and the detector. Each load
// trains with the snapshot it was probed with (core.Probe's contract),
// so the load path advances past a load only after its training.
func vpsecDrive(comp vpsecPredictor, gen trace.Generator, insts, seed uint64, rate uint32) vpsec.Stats {
	det := vpsec.New(vpsec.DefaultConfig())
	inj := vpsec.NewInjector(rate, seed^0xFA017)

	mem := gen.Mem()
	resolve := func(addr uint64, size uint8) (uint64, bool) {
		return mem.Read(addr, size), true
	}

	var hist, loadPath uint64
	var in trace.Inst
	warmup := insts / 2
	var n uint64
	for gen.Next(&in) {
		n++
		if in.IsBranch() {
			hist <<= 1
			if in.Taken {
				hist |= 1
			}
			continue
		}
		if in.Op != trace.OpLoad || in.Flags.NoPredict() {
			continue
		}
		lk := comp.Probe(core.Probe{PC: in.PC, BranchHist: hist, LoadPath: loadPath})
		observed, injected := inj.Corrupt(in.Value)
		if n > warmup {
			det.Record(det.Check(&lk, observed, in.Size, resolve), injected, in.Value)
		}
		o := core.Outcome{
			PC: in.PC, BranchHist: hist, LoadPath: loadPath,
			Addr: in.Addr, Size: in.Size, Value: in.Value,
		}
		comp.Train(o, &lk, core.Validate(&lk, o, resolve))
		loadPath = (loadPath << 6) ^ ((in.PC >> 2) & 0xFFF)
	}
	return det.Stats()
}
