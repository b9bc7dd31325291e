package expt

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/spec"
	"repro/internal/trace"
)

// componentSizes is the per-predictor sweep of Figure 3.
var componentSizes = []int{64, 128, 256, 512, 1024, 2048, 4096}

// compositeTotals is the total-entry sweep of Figures 5 and 7-9.
var compositeTotals = []int{256, 512, 1024, 2048, 4096}

// allComponents lists the four components in the paper's Table I order.
var allComponents = []core.Component{core.CompLVP, core.CompSAP, core.CompCVP, core.CompCAP}

// Fig2 classifies every workload's loads with the infinite-resource
// oracle and reports the Pattern-1/2/3 breakdown (paper Figure 2).
func Fig2(ctx *Context) Result {
	type row struct {
		cls     oracle.Classification
		profile string
	}
	rows := make([]row, len(ctx.Pool()))
	ctx.forEach(func(i int, w trace.Workload) {
		rows[i] = row{cls: oracle.Classify(w.Build(ctx.Insts()), 0), profile: w.Profile}
	})

	var total [4]uint64
	var loads uint64
	perProfile := map[string]*[4]uint64{}
	profLoads := map[string]uint64{}
	for _, r := range rows {
		for p := oracle.Pattern1; p <= oracle.Pattern3; p++ {
			total[p] += r.cls.Dynamic[p]
		}
		loads += r.cls.TotalLoads
		pp := perProfile[r.profile]
		if pp == nil {
			pp = &[4]uint64{}
			perProfile[r.profile] = pp
		}
		for p := oracle.Pattern1; p <= oracle.Pattern3; p++ {
			pp[p] += r.cls.Dynamic[p]
		}
		profLoads[r.profile] += r.cls.TotalLoads
	}

	t := &table{header: []string{"Scope", "Pattern-1 (LVP)", "Pattern-2 (SAP)", "Pattern-3 (CVP/CAP)"}}
	frac := func(n, d uint64) string {
		if d == 0 {
			return "-"
		}
		return pctu(100 * float64(n) / float64(d))
	}
	t.add("all workloads", frac(total[1], loads), frac(total[2], loads), frac(total[3], loads))
	profiles := make([]string, 0, len(perProfile))
	for p := range perProfile {
		profiles = append(profiles, p)
	}
	sort.Strings(profiles)
	for _, p := range profiles {
		pp := perProfile[p]
		t.add("  "+p, frac(pp[1], profLoads[p]), frac(pp[2], profLoads[p]), frac(pp[3], profLoads[p]))
	}
	return Result{ID: "Fig2", Title: "Load breakdown by pattern (infinite-resource oracle)", Lines: t.lines()}
}

// Fig3 sweeps each component predictor in isolation over table sizes
// and reports the average speedup (paper Figure 3).
func Fig3(ctx *Context) Result {
	vals := make([][]float64, len(componentSizes))
	maxSp := 0.0
	for i, size := range componentSizes {
		vals[i] = make([]float64, len(allComponents))
		for j, comp := range allComponents {
			sp := ctx.summary(single(comp, size)).Speedup
			vals[i][j] = sp
			if sp > maxSp {
				maxSp = sp
			}
		}
	}
	t := &table{header: append([]string{"Entries"}, componentNames()...)}
	for i, size := range componentSizes {
		row := []string{fmt.Sprint(size)}
		for _, sp := range vals[i] {
			row = append(row, pct(sp))
		}
		t.add(row...)
	}
	lines := t.lines()
	lines = append(lines, "")
	for j, comp := range allComponents {
		lines = append(lines, fmt.Sprintf("%v speedup by size:", comp))
		for i, size := range componentSizes {
			lines = append(lines, fmt.Sprintf("  %5d |%s %s", size, bar(vals[i][j], maxSp, 40), pct(vals[i][j])))
		}
	}
	return Result{ID: "Fig3", Title: "Component predictor speedup vs table size", Lines: lines}
}

func componentNames() []string {
	names := make([]string, len(allComponents))
	for i, c := range allComponents {
		names[i] = c.String()
	}
	return names
}

// compositeStats sums the pairs' composite statistics.
func compositeStats(pairs []Pair) core.CompositeStats {
	var agg core.CompositeStats
	for _, p := range pairs {
		st := p.Comp
		agg.Probes += st.Probes
		agg.PredictedLoads += st.PredictedLoads
		agg.UsedPredictions += st.UsedPredictions
		agg.UsedMispredictions += st.UsedMispredictions
		agg.TrainEvents += st.TrainEvents
		agg.TrainedComponents += st.TrainedComponents
		agg.SAPInvalidations += st.SAPInvalidations
		for k := range st.ConfidentHistogram {
			agg.ConfidentHistogram[k] += st.ConfidentHistogram[k]
		}
		for k := core.Component(0); k < core.NumComponents; k++ {
			agg.SoleConfident[k] += st.SoleConfident[k]
			agg.UsedBy[k] += st.UsedBy[k]
			agg.CorrectBy[k] += st.CorrectBy[k]
			agg.IncorrectBy[k] += st.IncorrectBy[k]
		}
	}
	return agg
}

// Fig4 reports how many components are simultaneously confident per
// predicted load for the 1K-entry composite (paper Figure 4).
func Fig4(ctx *Context) Result {
	st := compositeStats(ctx.Runs(spec.Sim{Predictor: composite(core.HomogeneousEntries(1024), spec.AMNone, false, false)}))
	t := &table{header: []string{"Bucket", "% of predicted loads"}}
	denom := float64(st.PredictedLoads)
	if denom == 0 {
		denom = 1
	}
	for _, comp := range allComponents {
		t.add(fmt.Sprintf("one prediction, by %v", comp),
			pctu(100*float64(st.SoleConfident[comp])/denom))
	}
	for n := 2; n <= 4; n++ {
		t.add(fmt.Sprintf("%d predictions", n),
			pctu(100*float64(st.ConfidentHistogram[n])/denom))
	}
	multi := st.ConfidentHistogram[2] + st.ConfidentHistogram[3] + st.ConfidentHistogram[4]
	t.add("multi-component overlap", pctu(100*float64(multi)/denom))
	return Result{ID: "Fig4", Title: "Predicted loads by number of confident components (1K entries)", Lines: t.lines()}
}

// Fig5 compares the homogeneous composite against the best single
// component at equal total entries (paper Figure 5).
func Fig5(ctx *Context) Result {
	t := &table{header: []string{"Total entries", "Composite", "Best component", "Composite vs best"}}
	for _, total := range compositeTotals {
		comp := ctx.summary(composite(core.HomogeneousEntries(total/4), spec.AMNone, false, false)).Speedup
		best, bestName := -1e9, ""
		for _, c := range allComponents {
			sp := ctx.summary(single(c, total)).Speedup
			if sp > best {
				best, bestName = sp, c.String()
			}
		}
		t.add(fmt.Sprint(total), pct(comp), fmt.Sprintf("%s (%s)", pct(best), bestName), pct(comp-best))
	}
	return Result{ID: "Fig5", Title: "Homogeneous composite vs best component (equal total entries)", Lines: t.lines()}
}

// Fig6 measures the accuracy monitor variants on the 1K composite
// (paper Figure 6).
func Fig6(ctx *Context) Result {
	entries := core.HomogeneousEntries(1024)
	t := &table{header: []string{"Configuration", "Speedup", "Coverage", "Accuracy"}}
	for _, cfg := range []struct {
		name string
		am   spec.AMMode
	}{
		{"composite (no AM)", spec.AMNone},
		{"composite + M-AM", spec.AMM},
		{"composite + PC-AM(64)", spec.AMPC},
		{"composite + PC-AM(inf)", spec.AMPCInf},
	} {
		a := ctx.summary(composite(entries, cfg.am, false, false))
		t.add(cfg.name, pct(a.Speedup), pctu(a.Coverage), fmt.Sprintf("%.4f", a.Accuracy))
	}
	return Result{ID: "Fig6", Title: "Accuracy monitor throttling (1K-entry composite)", Lines: t.lines()}
}

// Fig7 contrasts prediction overlap and training work with and without
// smart training (paper Figure 7).
func Fig7(ctx *Context) Result {
	t := &table{header: []string{"Total entries", "Policy", "1 pred", "2 preds", "3 preds", "4 preds", "avg trained"}}
	for _, total := range compositeTotals {
		entries := core.HomogeneousEntries(total / 4)
		for _, mode := range []struct {
			name  string
			smart bool
		}{{"train-all", false}, {"smart", true}} {
			st := compositeStats(ctx.Runs(spec.Sim{Predictor: composite(entries, spec.AMPC, mode.smart, false)}))
			denom := float64(st.PredictedLoads)
			if denom == 0 {
				denom = 1
			}
			avg := 0.0
			if st.TrainEvents > 0 {
				avg = float64(st.TrainedComponents) / float64(st.TrainEvents)
			}
			t.add(fmt.Sprint(total), mode.name,
				pctu(100*float64(st.ConfidentHistogram[1])/denom),
				pctu(100*float64(st.ConfidentHistogram[2])/denom),
				pctu(100*float64(st.ConfidentHistogram[3])/denom),
				pctu(100*float64(st.ConfidentHistogram[4])/denom),
				fmt.Sprintf("%.2f", avg))
		}
	}
	return Result{ID: "Fig7", Title: "Prediction overlap and training work, train-all vs smart training", Lines: t.lines()}
}

// Fig8 measures the speedup contribution of smart training across
// composite sizes (paper Figure 8).
func Fig8(ctx *Context) Result {
	t := &table{header: []string{"Total entries", "Train-all", "Smart training", "Delta"}}
	for _, total := range compositeTotals {
		entries := core.HomogeneousEntries(total / 4)
		off := ctx.summary(composite(entries, spec.AMPC, false, false)).Speedup
		on := ctx.summary(composite(entries, spec.AMPC, true, false)).Speedup
		t.add(fmt.Sprint(total), pct(off), pct(on), pct(on-off))
	}
	return Result{ID: "Fig8", Title: "Speedup from smart training", Lines: t.lines()}
}

// Fig9 measures the speedup contribution of table fusion across
// composite sizes (paper Figure 9).
func Fig9(ctx *Context) Result {
	t := &table{header: []string{"Total entries", "No fusion", "Fusion", "Delta"}}
	for _, total := range compositeTotals {
		entries := core.HomogeneousEntries(total / 4)
		off := ctx.summary(composite(entries, spec.AMPC, true, false)).Speedup
		on := ctx.summary(composite(entries, spec.AMPC, true, true)).Speedup
		t.add(fmt.Sprint(total), pct(off), pct(on), pct(on-off))
	}
	return Result{ID: "Fig9", Title: "Speedup from table fusion", Lines: t.lines()}
}

// Fig10 combines all optimizations and compares the best composite
// against the best single component at comparable storage budgets
// (paper Figure 10: the composite wins by >50% at every size).
func Fig10(ctx *Context) Result {
	winners := PaperHetWinners()
	t := &table{header: []string{"Budget", "Storage", "Composite (all opts)", "Best component", "Gain"}}
	totals := make([]int, 0, len(winners))
	for total := range winners {
		totals = append(totals, total)
	}
	sort.Ints(totals)
	for _, total := range totals {
		entries := winners[total]
		kb := CompositeStorageKB(entries)
		comp := ctx.summary(bestComposite(entries)).Speedup
		best, bestName := -1e9, ""
		for _, c := range allComponents {
			// Size the lone component to the same storage budget.
			bits := kb * 8192
			per := componentBits(c)
			n := pow2Floor(int(bits) / per)
			sp := ctx.summary(single(c, n)).Speedup
			if sp > best {
				best, bestName = sp, c.String()
			}
		}
		gain := "n/a"
		if best > 0 {
			gain = fmt.Sprintf("%+.0f%%", 100*(comp/best-1))
		}
		t.add(fmt.Sprint(total), fmt.Sprintf("%.2fKB", kb), pct(comp),
			fmt.Sprintf("%s (%s)", pct(best), bestName), gain)
	}
	return Result{ID: "Fig10", Title: "Best composite vs best component by storage budget", Lines: t.lines()}
}

func componentBits(c core.Component) int {
	switch c {
	case core.CompLVP:
		return core.LVPBitsPerEntry
	case core.CompSAP:
		return core.SAPBitsPerEntry
	case core.CompCVP:
		return core.CVPBitsPerEntry
	default:
		return core.CAPBitsPerEntry
	}
}

func pow2Floor(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// fig11Configs returns the comparison points of Figure 11.
func fig11Configs() (small, big [core.NumComponents]int) {
	w := PaperHetWinners()
	return w[512], w[1024]
}

// Fig11 compares the composite predictor against EVES at the paper's
// budget points (paper Figure 11: the composite more than doubles
// EVES's coverage and delivers >50% more speedup).
func Fig11(ctx *Context) Result {
	small, big := fig11Configs()
	t := &table{header: []string{"Predictor", "Storage", "Speedup", "Coverage", "Accuracy"}}
	cfgs := []struct {
		name    string
		storage string
		pred    spec.PredictorSpec
	}{
		{"Composite", fmt.Sprintf("%.1fKB", CompositeStorageKB(small)), bestComposite(small)},
		{"Composite", fmt.Sprintf("%.1fKB", CompositeStorageKB(big)), bestComposite(big)},
		{"EVES", "8KB", evesAt(8)},
		{"EVES", "32KB", evesAt(32)},
		{"EVES", "inf", evesAt(-1)},
	}
	aggs := make([]Aggregate, len(cfgs))
	for i, c := range cfgs {
		aggs[i] = ctx.summary(c.pred)
		t.add(c.name, c.storage, pct(aggs[i].Speedup), pctu(aggs[i].Coverage), fmt.Sprintf("%.4f", aggs[i].Accuracy))
	}
	// Relative comparison (Figure 11b / 12 headline numbers).
	rel := func(a, b Aggregate) (string, string) {
		sp, cov := "n/a", "n/a"
		if b.Speedup > 0 {
			sp = fmt.Sprintf("%+.0f%%", 100*(a.Speedup/b.Speedup-1))
		}
		if b.Coverage > 0 {
			cov = fmt.Sprintf("%+.0f%%", 100*(a.Coverage/b.Coverage-1))
		}
		return sp, cov
	}
	lines := t.lines()
	sp, cov := rel(aggs[0], aggs[2])
	lines = append(lines, fmt.Sprintf("composite %s vs EVES 8KB:  speedup %s, coverage %s", cfgs[0].storage, sp, cov))
	sp, cov = rel(aggs[1], aggs[3])
	lines = append(lines, fmt.Sprintf("composite %s vs EVES 32KB: speedup %s, coverage %s", cfgs[1].storage, sp, cov))
	return Result{ID: "Fig11", Title: "Composite vs EVES (CVP-1 winner)", Lines: lines}
}

// Fig12 reports the per-workload speedup and coverage comparison of
// the 9.6KB composite against 32KB EVES (paper Figure 12).
func Fig12(ctx *Context) Result {
	_, big := fig11Configs()
	comp := ctx.Runs(spec.Sim{Predictor: bestComposite(big)})
	ev := ctx.Runs(spec.Sim{Predictor: evesAt(32)})

	t := &table{header: []string{"Workload", "Comp speedup", "EVES speedup", "Comp coverage", "EVES coverage"}}
	compWins, evesWins := 0, 0
	for i := range comp {
		cs, es := comp[i].Speedup(), ev[i].Speedup()
		if cs > es+0.05 {
			compWins++
		} else if es > cs+0.05 {
			evesWins++
		}
		t.add(comp[i].Workload, pct(cs), pct(es),
			pctu(comp[i].Run.Coverage()), pctu(ev[i].Run.Coverage()))
	}
	ca, ea := Summarize(comp), Summarize(ev)
	lines := t.lines()
	lines = append(lines,
		fmt.Sprintf("average: composite %s / %.1f%% coverage, EVES %s / %.1f%% coverage",
			pct(ca.Speedup), ca.Coverage, pct(ea.Speedup), ea.Coverage),
		fmt.Sprintf("composite wins %d workloads, EVES wins %d (of %d)", compWins, evesWins, len(comp)))
	return Result{ID: "Fig12", Title: "Per-workload: composite (9.6KB) vs EVES (32KB)", Lines: lines}
}
