package expt

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// baseline returns w's Table III baseline from c's memo.
func baseline(c *Context, w trace.Workload) stats.Run {
	r, _ := c.Baseline(context.Background(), solo(w))
	return r.Merged
}

// solo is the single-context spec of w on the Table III machine.
func solo(w trace.Workload) spec.Sim {
	return spec.Sim{Workload: spec.WorkloadSpec{Name: w.Name}}
}

// baselineKey is the memo key of w's Table III baseline.
func baselineKey(c *Context, w trace.Workload) string {
	return c.baselineOf(solo(w)).CanonicalHash()
}

func TestSummarizeEmptyNonNil(t *testing.T) {
	if Summarize([]Pair{}) != (Aggregate{}) {
		t.Fatal("Summarize of an empty (non-nil) slice should be the zero aggregate")
	}
}

func TestSummarizeSkipsZeroIPCBaselines(t *testing.T) {
	mk := func(insts, cycles uint64, loads, pred, correct uint64) stats.Run {
		return stats.Run{
			Instructions: insts, Cycles: cycles,
			Loads: loads, PredictedLoads: pred, CorrectPredicted: correct,
		}
	}
	pairs := []Pair{
		// 10% faster than baseline.
		{Workload: "a", Run: mk(1000, 500, 100, 50, 50), Base: mk(1000, 550, 100, 0, 0)},
		// Zero-IPC baseline: must not contribute to the speedup mean,
		// but still counts in the coverage/accuracy averages.
		{Workload: "b", Run: mk(1000, 500, 100, 100, 100), Base: stats.Run{}},
	}
	agg := Summarize(pairs)
	want := 100 * (float64(1000)/500/(float64(1000)/550) - 1)
	if diff := agg.Speedup - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Speedup = %g, want %g (zero-IPC baseline must be skipped)", agg.Speedup, want)
	}
	if agg.Coverage != 75 { // (50% + 100%) / 2
		t.Errorf("Coverage = %g, want 75", agg.Coverage)
	}
	if agg.Accuracy != 1 {
		t.Errorf("Accuracy = %g, want 1", agg.Accuracy)
	}
}

func TestSummarizeSkipsAbortedRuns(t *testing.T) {
	mk := func(insts, cycles uint64, loads, pred, correct uint64) stats.Run {
		return stats.Run{
			Instructions: insts, Cycles: cycles,
			Loads: loads, PredictedLoads: pred, CorrectPredicted: correct,
		}
	}
	good := Pair{Workload: "a", Run: mk(1000, 500, 100, 50, 50), Base: mk(1000, 550, 100, 0, 0)}
	abortedRun := good
	abortedRun.Workload = "b"
	abortedRun.Run.Aborted = true
	abortedRun.Run.Cycles = 1 // absurd prefix metrics that would skew every mean
	abortedBase := good
	abortedBase.Workload = "c"
	abortedBase.Base.Aborted = true
	abortedBase.Base.Cycles = 1

	want := Summarize([]Pair{good})
	got := Summarize([]Pair{good, abortedRun, abortedBase})
	if got != want {
		t.Errorf("aborted pairs leaked into the aggregate: got %+v, want %+v", got, want)
	}
	if all := Summarize([]Pair{abortedRun, abortedBase}); all != (Aggregate{}) {
		t.Errorf("all-aborted input should aggregate to zero, got %+v", all)
	}
}

func TestNewContextErrUnknownWorkload(t *testing.T) {
	_, err := NewContextErr(Options{Workloads: []string{"no-such-workload"}})
	if err == nil {
		t.Fatal("NewContextErr accepted an unknown workload")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewContext did not panic on an unknown workload")
		}
	}()
	NewContext(Options{Workloads: []string{"no-such-workload"}})
}

// TestBaselineSingleflight exercises the duplicated-baseline fix: many
// concurrent callers for the same uncached workload must agree on one
// result (the race detector guards the bookkeeping).
func TestBaselineSingleflight(t *testing.T) {
	c := NewContext(Options{Insts: 20_000})
	w := c.Pool()[0]
	const callers = 8
	results := make([]stats.Run, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = baseline(c, w)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different baseline: %+v vs %+v", i, results[i], results[0])
		}
	}
	if _, memoized := c.Baseline(context.Background(), solo(w)); !memoized {
		t.Fatal("baseline not cached after concurrent calls")
	}
}

// TestBaselineWaitsForInflight pins the singleflight contract directly:
// a caller that finds an in-flight marker blocks until it clears, then
// returns the cached run instead of recomputing.
func TestBaselineWaitsForInflight(t *testing.T) {
	c := NewContext(Options{Insts: 20_000})
	w := c.Pool()[0]
	e := &memoEntry{done: make(chan struct{})}
	c.mu.Lock()
	c.memo[baselineKey(c, w)] = e
	c.mu.Unlock()

	got := make(chan stats.Run, 1)
	go func() { got <- baseline(c, w) }()
	select {
	case r := <-got:
		t.Fatalf("second caller did not wait for the in-flight run; got %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	want := stats.Run{Workload: w.Name, Config: "base", Instructions: 42, Cycles: 21}
	c.mu.Lock()
	e.res.Merged, e.ok = want, true
	c.mu.Unlock()
	close(e.done)

	if r := <-got; r != want {
		t.Fatalf("waiter recomputed instead of using the cached run: %+v", r)
	}
}

func TestBaselineCtxCancelledWaiter(t *testing.T) {
	c := NewContext(Options{Insts: 20_000})
	w := c.Pool()[0]
	c.mu.Lock()
	c.memo[baselineKey(c, w)] = &memoEntry{done: make(chan struct{})} // never closed
	c.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, memoized := c.Baseline(ctx, solo(w))
	if !r.Aborted() || memoized {
		t.Fatalf("cancelled waiter returned a non-aborted or memoized run: %+v", r.Merged)
	}
}

func TestBaselineAbortedNotCached(t *testing.T) {
	c := NewContext(Options{Insts: 200_000})
	w := c.Pool()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, _ := c.Baseline(ctx, solo(w)); !r.Aborted() {
		t.Fatal("baseline under a cancelled context not aborted")
	}
	// A later call with a live context simulates and caches normally.
	r2, memoized := c.Baseline(context.Background(), solo(w))
	if memoized {
		t.Fatal("aborted baseline was cached")
	}
	if r2.Aborted() || r2.Merged.Instructions == 0 {
		t.Fatalf("recovery run after abort looks wrong: %+v", r2.Merged)
	}
	if _, memoized := c.Baseline(context.Background(), solo(w)); !memoized {
		t.Fatal("complete baseline not cached")
	}
}

// TestSMTBaselineCancelledNotMemoized: a multi-context baseline under a
// cancelled context returns promptly marked Aborted, stays out of the
// memo, and a later live call simulates it in full.
func TestSMTBaselineCancelledNotMemoized(t *testing.T) {
	c := NewContext(Options{Insts: 500_000, Workloads: []string{"gcc2k"}})
	sim := smtSim(t, 2, "gcc2k", "mcf")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r, _ := c.Baseline(ctx, sim)
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("cancelled SMT baseline took %v", el)
	}
	if !r.Aborted() {
		t.Fatalf("SMT baseline under a cancelled context not aborted: %+v", r.Merged)
	}
	if r, memoized := c.Baseline(context.Background(), sim); memoized || r.Aborted() {
		t.Fatalf("aborted SMT baseline was memoized, or the live one did not complete: %+v", r.Merged)
	}
	if _, memoized := c.Baseline(context.Background(), sim); !memoized {
		t.Fatal("live SMT baseline not memoized")
	}
}

// TestRunsMemoizedBySpec: the memo is keyed by the canonical spec, so a
// second spelling of the same predictor simulates nothing new and
// returns the same pairs, while a different predictor adds its runs
// beside the shared baselines.
func TestRunsMemoizedBySpec(t *testing.T) {
	c := NewContext(Options{Insts: 10_000, Workloads: []string{"gcc2k", "mcf"}})
	entries := core.HomogeneousEntries(256)
	a := c.Runs(spec.Sim{Predictor: bestComposite(entries)})
	if n := len(c.memo); n != 4 {
		t.Fatalf("memo holds %d runs after one spec on 2 workloads, want 4", n)
	}
	b := c.Runs(spec.Sim{Predictor: composite(entries, spec.AMPC, false, true)})
	if n := len(c.memo); n != 4 {
		t.Fatalf("an equivalent spelling grew the memo to %d runs", n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: memoized pair differs", a[i].Workload)
		}
	}
	c.Runs(spec.Sim{Predictor: evesAt(-1)})
	if n := len(c.memo); n != 6 {
		t.Fatalf("memo holds %d runs after a second predictor, want 6", n)
	}
}
