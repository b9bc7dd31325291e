package server

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestOversizedSweepRefusedBeforeExpanding: a sweep over the cap is
// refused from its axis lengths alone. A 300 × 300 sweep at the default
// cap names its size in the error and allocates no points, and a
// product too large for an int is refused too.
func TestOversizedSweepRefusedBeforeExpanding(t *testing.T) {
	req := SweepRequest{Template: JobRequest{Workload: "gcc2k"}}
	for i := 1; i <= 300; i++ {
		req.Axes.Seeds = append(req.Axes.Seeds, uint64(i))
		req.Axes.EntriesPer = append(req.Axes.EntriesPer, 64*i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := req.Expand(spec.Defaults{}, 0)
	runtime.ReadMemStats(&after)
	if want := "sweep expands to 90000 jobs, max 256"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("refusing the sweep allocated %d bytes, want under 1 MiB", n)
	}

	// Eight axes of 256 values each ask for 2^64 points.
	var huge SweepAxes
	for i := 0; i < 256; i++ {
		huge.Workloads = append(huge.Workloads, "gcc2k")
		huge.Predictors = append(huge.Predictors, "lvp")
		huge.EntriesPer = append(huge.EntriesPer, 64)
		huge.AMs = append(huge.AMs, "pc")
		huge.BudgetsKB = append(huge.BudgetsKB, 32)
		huge.Seeds = append(huge.Seeds, 1)
		huge.Machines = append(huge.Machines, spec.MachineSpec{})
		huge.Contexts = append(huge.Contexts, 1)
	}
	_, err = SweepRequest{Template: JobRequest{Workload: "gcc2k"}, Axes: huge}.Expand(spec.Defaults{}, 0)
	if err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("err = %v, want a refusal of an overflowing expansion", err)
	}
}

// FuzzSweepExpand drives POST /v1/sweeps' expansion with arbitrary
// request bodies, as lvpd and the coordinator accept them. Expand must
// never panic, never return more points than its cap, and return only
// points that validate, each under its own canonical hash.
func FuzzSweepExpand(f *testing.F) {
	f.Add([]byte(`{"template":{"workload":"gcc2k","insts":20000},"axes":{"predictors":["lvp","composite"],"seeds":[1,2]}}`))
	f.Add([]byte(`{"template":{"workload":"gcc2k"},"axes":{"predictors":["lvp","nope"]}}`))
	f.Add([]byte(`{"template":{"spec":{"workload":{"name":"mcf","names":["mcf","gcc2k"]}}},"axes":{"contexts":[1,2,4],"entries":[64,0]}}`))
	f.Add([]byte(`{"template":{"preset":"smt4","workload":"gcc2k"},"axes":{"machines":[{"rob":64},{}],"ams":["m","pc"],"budgets_kb":[-1,32]}}`))
	f.Add([]byte(`{"template":{"workload":"gcc2k"},"axes":{"seeds":[` + strings.TrimSuffix(strings.Repeat("1,", 40), ",") + `],"entries":[` + strings.TrimSuffix(strings.Repeat("64,", 40), ",") + `]}}`))
	d := spec.Defaults{Insts: DefaultInsts, MaxInsts: DefaultMaxInsts, Seed: DefaultSeed}
	f.Fuzz(func(t *testing.T, b []byte) {
		var req SweepRequest
		if json.Unmarshal(b, &req) != nil {
			return
		}
		const max = 64
		points, err := req.Expand(d, max)
		if err != nil {
			return
		}
		if len(points) > max {
			t.Fatalf("%d points over a cap of %d", len(points), max)
		}
		for i, p := range points {
			if err := p.Sim.Validate(); err != nil {
				t.Fatalf("point %d does not validate: %v", i, err)
			}
			if h := p.Sim.CanonicalHash(); h != p.Hash {
				t.Fatalf("point %d: hash %s, canonical hash %s", i, p.Hash, h)
			}
			if p.Label == "" {
				t.Fatalf("point %d has no label", i)
			}
		}
	})
}
