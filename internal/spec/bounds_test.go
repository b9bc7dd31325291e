package spec

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
)

// allocated returns how many bytes build allocates, and what it built.
func allocated[T any](build func() T) (uint64, T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, v
}

// TestBoundsAllocation builds an eight-context pipeline with every
// size, width and latency at its bound at once, and the largest engine
// each predictor family can ask for, and requires the pipeline and any
// one engine to allocate under 512 MiB together.
func TestBoundsAllocation(t *testing.T) {
	const limit = 512 << 20
	paq := maxPAQDepth
	machine := MachineSpec{
		FetchWidth: maxWidth, FetchToExec: maxLatency, IssueWidth: maxWidth, CommitWidth: maxWidth,
		LSLanes: maxWidth, ROB: maxWindow, IQ: maxWindow, LDQ: maxWindow, STQ: maxWindow,
		StoreForwardLat: maxLatency, PAQDepth: &paq, ReplayPenalty: maxLatency,
		L1DKB: maxCacheKB, L2KB: maxCacheKB, L3KB: maxCacheKB, MemLatency: maxMemLatency,
		PrefetchDegree: maxPrefetchDegree, Contexts: MaxContexts,
	}
	valid := func(p PredictorSpec) Sim {
		t.Helper()
		sim := Sim{Machine: machine, Predictor: p, Workload: WorkloadSpec{Name: "gcc2k"}}
		sim.Normalize(Defaults{Insts: 100_000})
		if err := sim.Validate(); err != nil {
			t.Fatalf("%+v at its bounds: %v", p, err)
		}
		return sim
	}
	sim := valid(PredictorSpec{Family: FamilyNone})
	pipe, p := allocated(func() *cpu.Pipeline { return cpu.New(sim.Machine.Config(), nil) })
	if p.NumContexts() != MaxContexts {
		t.Fatalf("built %d contexts, want %d", p.NumContexts(), MaxContexts)
	}
	for _, pred := range []PredictorSpec{
		{Family: FamilyComposite, EntriesPer: maxEntries, ValuePoolSlots: maxEntries, AM: AMPCInf},
		{Family: FamilyBest, EntriesPer: maxEntries, SmartTraining: true},
		{Family: FamilyEVES, BudgetKB: maxBudgetKB},
		{Family: FamilyEVES, BudgetKB: -1},
	} {
		sim := valid(pred)
		eng, _ := allocated(func() cpu.Engine {
			e, err := NewEngine(sim.Predictor, sim.Workload.Insts, 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
		t.Logf("pipeline %d MiB + %s engine %d MiB", pipe>>20, pred.Family, eng>>20)
		if pipe+eng > limit {
			t.Errorf("pipeline (%d B) and %+v engine (%d B) at their bounds allocate %d B, over %d", pipe, pred, eng, pipe+eng, limit)
		}
	}
	runtime.KeepAlive(p)
}
