package expt

import (
	"fmt"
	"sort"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TableIV renders the component predictor parameters (paper Table IV).
func TableIV(*Context) Result {
	t := &table{header: []string{
		"Predictor", "Predicts", "Context", "Tables", "bits/entry",
		"Conf bits", "Threshold", "Effective", "FPC vector", "Histories",
	}}
	for _, row := range core.TableIV() {
		ctx := "agnostic"
		if row.ContextAware {
			ctx = "aware"
		}
		hist := "-"
		if len(row.HistoryLens) > 0 {
			hist = fmt.Sprint(row.HistoryLens)
		}
		t.add(
			row.Component.String(), row.Predicts.String(), ctx,
			fmt.Sprint(row.Tables), fmt.Sprint(row.BitsPerEntry),
			fmt.Sprint(row.ConfBits), fmt.Sprint(row.ConfThreshold),
			fmt.Sprint(row.EffectiveConf), fmt.Sprint(row.FPCVector), hist,
		)
	}
	return Result{
		ID:    "TableIV",
		Title: "Predictor parameters (99% accuracy tuning)",
		Lines: t.lines(),
	}
}

// tableVOuters are the outer-loop iterations reported (1-based, as in
// the paper's Table V columns).
var tableVOuters = []int{1, 2, 3, 4, 5, 6, 17, 65}

// TableVInnerN is the Listing-1 inner trip count used for Table V.
const TableVInnerN = 16

// TableV measures, for each component predictor in isolation (no
// aliasing, immediate training), how many inner-loop loads of Listing 1
// must complete before the predictor's first prediction in each outer
// iteration. A dash means no prediction in that outer iteration; zero
// means a prediction on the first inner iteration (paper Table V).
func TableV(ctx *Context) Result {
	preds := []core.Predictor{
		core.NewLVP(1024, ctx.Seed()),
		core.NewSAP(1024, ctx.Seed()),
		core.NewCVP(1024, ctx.Seed()),
		core.NewCAP(1024, ctx.Seed()),
	}
	results := make(map[core.Component]map[int]int) // outer -> first inner idx
	for _, p := range preds {
		results[p.Component()] = tableVMeasure(p, ctx.Insts())
	}

	t := &table{header: append([]string{"Predictor"}, func() []string {
		h := make([]string, len(tableVOuters))
		for i, o := range tableVOuters {
			h[i] = fmt.Sprintf("o=%d", o)
		}
		return h
	}()...)}
	for _, p := range preds {
		row := []string{p.Component().String()}
		for _, o := range tableVOuters {
			if v, ok := results[p.Component()][o]; ok {
				row = append(row, fmt.Sprint(v))
			} else {
				row = append(row, "-")
			}
		}
		t.add(row...)
	}
	return Result{
		ID:    "TableV",
		Title: fmt.Sprintf("Listing-1 loads completed before first prediction (N=%d, no aliasing)", TableVInnerN),
		Lines: t.lines(),
	}
}

// tableVMeasure drives one predictor over the Listing-1 stream with
// immediate training and perfect (unaliased) tables.
func tableVMeasure(p core.Predictor, insts uint64) map[int]int {
	gen := trace.NewListing1(insts, TableVInnerN)
	var hist branch.History
	var loadPath uint64
	first := make(map[int]int)
	outer, inner := 1, 0
	var in trace.Inst
	for gen.Next(&in) {
		switch {
		case in.Op == trace.OpLoad:
			probe := core.Probe{PC: in.PC, BranchHist: hist.Global, LoadPath: loadPath}
			if _, ok := p.Predict(probe); ok {
				if _, seen := first[outer]; !seen {
					first[outer] = inner
				}
			}
			p.Train(core.Outcome{
				PC: in.PC, BranchHist: hist.Global, LoadPath: loadPath,
				Addr: in.Addr, Size: in.Size, Value: in.Value,
			})
			loadPath = (loadPath << 6) ^ ((in.PC >> 2) & 0xFFF)
			inner++
			if inner == TableVInnerN {
				inner = 0
				outer++
				if outer > tableVOuters[len(tableVOuters)-1] {
					return first
				}
			}
		case in.IsBranch():
			hist.Update(in.PC, in.Taken)
		}
	}
	return first
}

// hetGrid is the per-component size grid of the Table VI exploration
// (the paper sweeps 0-1K entries independently).
var hetGrid = []int{0, 32, 64, 128, 256, 512, 1024}

// hetBuckets are the total-entry budgets reported in Table VI.
var hetBuckets = []int{256, 512, 1024, 2048, 4096}

// HetConfig is one heterogeneous allocation candidate.
type HetConfig struct {
	Entries [core.NumComponents]int
	Speedup float64
}

// TableVI reruns the heterogeneous sizing exploration: for each total
// budget it evaluates every grid allocation summing to the budget and
// reports the winner, its storage, and its gain over the homogeneous
// allocation (paper Table VI). The sweep cost is O(valid combos ×
// pool), so contexts for TableVI typically use a workload subsample.
func TableVI(ctx *Context) Result {
	t := &table{header: []string{
		"Total", "Speedup", "LVP", "SAP", "CVP", "CAP", "Storage", "Speedup/KB", "vs Homog", "comment",
	}}
	for _, bucket := range hetBuckets {
		combos := hetCombos(bucket)
		best := HetConfig{Speedup: -1e9}
		var homog HetConfig
		homogEntries := core.HomogeneousEntries(bucket / 4)
		for _, entries := range combos {
			sp := ctx.summary(composite(entries, spec.AMPC, false, false)).Speedup
			hc := HetConfig{Entries: entries, Speedup: sp}
			if sp > best.Speedup {
				best = hc
			}
			if entries == homogEntries {
				homog = hc
			}
		}
		kb := CompositeStorageKB(best.Entries)
		comment := ""
		if best.Entries == homogEntries {
			comment = "homogeneous was best"
		}
		vsHomog := 0.0
		if homog.Speedup != 0 {
			vsHomog = 100 * (best.Speedup/homog.Speedup - 1)
		}
		t.add(
			fmt.Sprint(bucket), pct(best.Speedup),
			fmt.Sprint(best.Entries[core.CompLVP]), fmt.Sprint(best.Entries[core.CompSAP]),
			fmt.Sprint(best.Entries[core.CompCVP]), fmt.Sprint(best.Entries[core.CompCAP]),
			fmt.Sprintf("%.2fKB", kb), fmt.Sprintf("%.3f%%/KB", best.Speedup/kb),
			fmt.Sprintf("%+.0f%%", vsHomog), comment,
		)
	}
	return Result{
		ID:    "TableVI",
		Title: "Heterogeneous composite sizing exploration",
		Lines: t.lines(),
	}
}

// hetCombos enumerates grid allocations summing exactly to total.
// To keep the sweep tractable it requires every present component to be
// a grid size and skips allocations that leave fewer than two
// components (the paper found all winners keep all four).
func hetCombos(total int) [][core.NumComponents]int {
	var out [][core.NumComponents]int
	for _, l := range hetGrid {
		for _, s := range hetGrid {
			for _, c := range hetGrid {
				for _, a := range hetGrid {
					if l+s+c+a != total {
						continue
					}
					present := 0
					for _, v := range []int{l, s, c, a} {
						if v > 0 {
							present++
						}
					}
					if present < 2 {
						continue
					}
					var e [core.NumComponents]int
					e[core.CompLVP], e[core.CompSAP] = l, s
					e[core.CompCVP], e[core.CompCAP] = c, a
					out = append(out, e)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < int(core.NumComponents); k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// PaperHetWinners returns the paper's Table VI winning allocations
// (LVP, SAP, CVP, CAP), used by Figures 10-12 as the heterogeneous
// configurations without re-running the full sweep.
func PaperHetWinners() map[int][core.NumComponents]int {
	mk := func(l, s, c, a int) [core.NumComponents]int {
		var e [core.NumComponents]int
		e[core.CompLVP], e[core.CompSAP], e[core.CompCVP], e[core.CompCAP] = l, s, c, a
		return e
	}
	return map[int][core.NumComponents]int{
		4096: mk(1024, 1024, 1024, 1024),
		2048: mk(256, 1024, 512, 256),
		1024: mk(256, 256, 256, 256),
		512:  mk(64, 256, 128, 64),
		256:  mk(32, 32, 128, 64),
	}
}
