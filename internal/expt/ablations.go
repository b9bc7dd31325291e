package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/spec"
)

// Ablations quantifies the design choices DESIGN.md calls out: each row
// disables one mechanism of the full system (the 9.6KB best composite on
// the Table III core) and reports the aggregate impact. It extends the
// paper with the sensitivity study its Section V motivates.
func Ablations(ctx *Context) Result {
	_, big := fig11Configs()
	full := bestComposite(big)
	off, paq8, unbounded := false, 8, 0
	subset := func(comps ...core.Component) [core.NumComponents]int {
		var e [core.NumComponents]int
		for _, c := range comps {
			e[c] = big[c]
		}
		return e
	}

	// Machine rows change the core under the full system, so each one's
	// speedup is against a baseline on the same core; predictor rows
	// keep the Table III core.
	rows := []struct {
		name string
		sim  spec.Sim
	}{
		{"full system", spec.Sim{Predictor: full}},
		{"- PAQ prefetch on probe miss", spec.Sim{Machine: spec.MachineSpec{PAQPrefetchOnMiss: &off}, Predictor: full}},
		{"- store-conflict suppression", spec.Sim{Machine: spec.MachineSpec{SuppressStoreConflicts: &off}, Predictor: full}},
		{"replay recovery (vs flush)", spec.Sim{Machine: spec.MachineSpec{ReplayRecovery: true}, Predictor: full}},
		{"PAQ depth 8 (vs 24)", spec.Sim{Machine: spec.MachineSpec{PAQDepth: &paq8}, Predictor: full}},
		{"PAQ unbounded", spec.Sim{Machine: spec.MachineSpec{PAQDepth: &unbounded}, Predictor: full}},
		{"- accuracy monitor", spec.Sim{Predictor: composite(big, spec.AMNone, false, true)}},
		{"- table fusion", spec.Sim{Predictor: composite(big, spec.AMPC, false, false)}},
		{"- address predictors (LVP+CVP)", spec.Sim{Predictor: composite(subset(core.CompLVP, core.CompCVP), spec.AMPC, false, false)}},
		{"- value predictors (SAP+CAP)", spec.Sim{Predictor: composite(subset(core.CompSAP, core.CompCAP), spec.AMPC, false, false)}},
	}

	t := &table{header: []string{"Configuration", "Speedup", "Coverage", "Accuracy"}}
	for _, row := range rows {
		agg := Summarize(ctx.Runs(row.sim))
		t.add(row.name, pct(agg.Speedup), pctu(agg.Coverage), fmt.Sprintf("%.4f", agg.Accuracy))
	}
	return Result{
		ID:    "Ablations",
		Title: "Mechanism ablations on the 9.6KB composite",
		Lines: t.lines(),
	}
}

// WindowSweep measures how the composite's benefit scales with the
// out-of-order window: the paper motivates value prediction by the
// growth of scheduling windows (Section I), and this extension
// quantifies the interaction — smaller windows hide less load latency,
// larger windows extract more MLP on their own.
func WindowSweep(ctx *Context) Result {
	_, big := fig11Configs()
	pred := composite(big, spec.AMPC, false, false)
	t := &table{header: []string{"ROB", "IQ", "LDQ/STQ", "Baseline IPC", "Speedup", "Coverage"}}
	for _, scale := range []struct {
		name     string
		rob, iq  int
		ldq, stq int
	}{
		{"half", 112, 48, 36, 28},
		{"Skylake (Table III)", 224, 97, 72, 56},
		{"double", 448, 194, 144, 112},
		{"quad", 896, 388, 288, 224},
	} {
		m := spec.MachineSpec{ROB: scale.rob, IQ: scale.iq, LDQ: scale.ldq, STQ: scale.stq}
		pairs := ctx.Runs(spec.Sim{Machine: m, Predictor: pred})
		agg := Summarize(pairs)
		baseIPC := 0.0
		for _, p := range pairs {
			baseIPC += p.Base.IPC()
		}
		baseIPC /= float64(len(pairs))
		t.add(fmt.Sprintf("%d (%s)", scale.rob, scale.name), fmt.Sprint(scale.iq),
			fmt.Sprintf("%d/%d", scale.ldq, scale.stq),
			fmt.Sprintf("%.3f", baseIPC), pct(agg.Speedup), pctu(agg.Coverage))
	}
	return Result{
		ID:    "WindowSweep",
		Title: "Extension: composite benefit vs out-of-order window size",
		Lines: t.lines(),
	}
}
