package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/spec"
)

// SharedPool evaluates the storage optimization the paper defers at the
// end of Section III-B: decoupling LVP/CVP's value arrays into one
// shared, reference-counted pool. For each pool size it reports the
// storage saved against the direct 1K-entry composite and the coverage/
// speedup cost of pool pressure.
func SharedPool(ctx *Context) Result {
	entries := core.HomogeneousEntries(256) // the 9.6KB configuration
	poolSpec := func(slots int) spec.PredictorSpec {
		return spec.PredictorSpec{
			Family:         spec.FamilyComposite,
			Entries:        entries,
			AM:             spec.AMPC,
			ValuePoolSlots: slots,
		}
	}
	storageKB := func(slots int) float64 {
		return core.NewComposite(core.CompositeConfig{
			Entries: entries, Seed: 1, ValuePoolSlots: slots,
		}).StorageKB()
	}
	directKB := storageKB(0)
	dir := ctx.summary(poolSpec(0))

	t := &table{header: []string{"Configuration", "Storage", "Saved", "Speedup", "Coverage", "Accuracy"}}
	t.add("direct value arrays", fmt.Sprintf("%.2fKB", directKB), "-",
		pct(dir.Speedup), pctu(dir.Coverage), fmt.Sprintf("%.4f", dir.Accuracy))

	for _, slots := range []int{16, 48, 128, 256} {
		kb := storageKB(slots)
		a := ctx.summary(poolSpec(slots))
		t.add(fmt.Sprintf("shared pool, %d slots", slots),
			fmt.Sprintf("%.2fKB", kb),
			fmt.Sprintf("%.1f%%", 100*(1-kb/directKB)),
			pct(a.Speedup), pctu(a.Coverage), fmt.Sprintf("%.4f", a.Accuracy))
	}
	return Result{
		ID:    "SharedPool",
		Title: "Extension: decoupled shared value arrays (Section III-B optimization)",
		Lines: t.lines(),
	}
}
