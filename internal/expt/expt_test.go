package expt

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

func tinyCtx() *Context {
	return NewContext(Options{Insts: 20_000, Workloads: sampleNames(4)})
}

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.Title != e.Title {
			t.Errorf("ByID(%s) mismatch", e.ID)
		}
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted an unknown ID")
	}
	if len(IDs()) != len(Registry()) {
		t.Error("IDs() length mismatch")
	}
	if len(Describe()) != len(Registry()) {
		t.Error("Describe() length mismatch")
	}
}

func TestTableIVStatic(t *testing.T) {
	res := TableIV(nil)
	if res.ID != "TableIV" {
		t.Errorf("ID = %s", res.ID)
	}
	text := strings.Join(res.Lines, "\n")
	for _, want := range []string{"LVP", "SAP", "CVP", "CAP", "81", "77", "67", "64", "16"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table IV missing %q:\n%s", want, text)
		}
	}
}

func TestTableVShape(t *testing.T) {
	ctx := NewContext(Options{Insts: 40_000, Workloads: sampleNames(1)})
	res := TableV(ctx)
	text := strings.Join(res.Lines, "\n")
	// SAP retrains each outer iteration but predicts within every one;
	// LVP needs ~64 observations (4 outers at N=16) before its first
	// prediction; CAP's load-path model never fires on Listing 1 (see
	// EXPERIMENTS.md).
	if !strings.Contains(text, "LVP") || !strings.Contains(text, "SAP") {
		t.Fatalf("missing rows:\n%s", text)
	}
	lines := res.Lines
	var lvpRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "LVP") {
			lvpRow = l
		}
	}
	cells := strings.Fields(lvpRow)
	if len(cells) < 4 {
		t.Fatalf("LVP row malformed: %q", lvpRow)
	}
	if cells[1] != "-" {
		t.Errorf("LVP predicted in outer 1 (%q); needs ~64 observations", cells[1])
	}
}

func TestHetCombosSumAndPresence(t *testing.T) {
	for _, bucket := range hetBuckets {
		combos := hetCombos(bucket)
		if len(combos) == 0 {
			t.Errorf("no combos for bucket %d", bucket)
		}
		seen := map[[core.NumComponents]int]bool{}
		for _, c := range combos {
			sum, present := 0, 0
			for _, v := range c {
				sum += v
				if v > 0 {
					present++
				}
			}
			if sum != bucket {
				t.Errorf("combo %v sums to %d, want %d", c, sum, bucket)
			}
			if present < 2 {
				t.Errorf("combo %v has fewer than two components", c)
			}
			if seen[c] {
				t.Errorf("duplicate combo %v", c)
			}
			seen[c] = true
		}
	}
}

func TestPaperHetWinnersStorage(t *testing.T) {
	w := PaperHetWinners()
	// The paper's 1024-entry homogeneous winner is its 9.56KB
	// configuration.
	kb := CompositeStorageKB(w[1024])
	if kb < 9.3 || kb > 9.8 {
		t.Errorf("1024-winner storage = %.2fKB, want ≈ 9.56KB", kb)
	}
	for total, entries := range w {
		sum := 0
		for _, v := range entries {
			sum += v
		}
		if sum != total {
			t.Errorf("winner for %d sums to %d", total, sum)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	tb := &table{header: []string{"A", "Blong", "C"}}
	tb.add("x", "y", "z")
	tb.add("longer", "v", "w")
	lines := tb.lines()
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+sep+2", len(lines))
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("missing separator")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "X", Title: "t", Lines: []string{"a", "b"}}
	s := r.String()
	if !strings.Contains(s, "=== X — t ===") || !strings.Contains(s, "a\nb\n") {
		t.Errorf("render: %q", s)
	}
}

func TestContextDefaults(t *testing.T) {
	ctx := NewContext(Options{})
	if ctx.Insts() != 100_000 || ctx.Seed() == 0 {
		t.Error("defaults not applied")
	}
	if len(ctx.Pool()) != 85 {
		t.Errorf("default pool = %d", len(ctx.Pool()))
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown workload should panic")
		}
	}()
	NewContext(Options{Workloads: []string{"bogus"}})
}

func TestBaselineCached(t *testing.T) {
	ctx := tinyCtx()
	w := ctx.Pool()[0]
	a := baseline(ctx, w)
	b := baseline(ctx, w)
	if a != b {
		t.Error("baseline cache returned different runs")
	}
}

// TestPerWorkloadOrderAndDeterminism runs one spec on two fresh
// Contexts: on one Context the memo would hand back the same runs.
func TestPerWorkloadOrderAndDeterminism(t *testing.T) {
	ctx := tinyCtx()
	sim := spec.Sim{Predictor: composite(core.HomogeneousEntries(64), spec.AMPC, false, false)}
	a := ctx.Runs(sim)
	b := tinyCtx().Runs(sim)
	if len(a) != len(ctx.Pool()) {
		t.Fatalf("pairs = %d", len(a))
	}
	for i := range a {
		if a[i].Workload != ctx.Pool()[i].Name {
			t.Errorf("pair %d out of order", i)
		}
		if a[i].Run != b[i].Run || a[i].Base != b[i].Base || a[i].Comp != b[i].Comp {
			t.Errorf("%s: non-deterministic run", a[i].Workload)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if Summarize(nil) != (Aggregate{}) {
		t.Error("empty summarize should be zero")
	}
}

func TestFig2SmallPool(t *testing.T) {
	res := Fig2(tinyCtx())
	if len(res.Lines) < 3 {
		t.Fatalf("Fig2 output too short: %v", res.Lines)
	}
	if !strings.Contains(res.Lines[2], "%") {
		t.Error("Fig2 row missing percentages")
	}
}

func TestFig6OrderingOnSample(t *testing.T) {
	// The AM ordering (PC-AM >= no-AM accuracy) must hold even on a
	// small sample.
	ctx := NewContext(Options{Insts: 40_000, Workloads: sampleNames(6)})
	noAM := ctx.summary(composite(core.HomogeneousEntries(256), spec.AMNone, false, false))
	pcAM := ctx.summary(composite(core.HomogeneousEntries(256), spec.AMPC, false, false))
	if pcAM.Accuracy < noAM.Accuracy {
		t.Errorf("PC-AM accuracy %.4f < no-AM %.4f", pcAM.Accuracy, noAM.Accuracy)
	}
}

func TestCompositeStorageKBMatchesComposite(t *testing.T) {
	entries := core.HomogeneousEntries(256)
	c := core.NewComposite(core.CompositeConfig{Entries: entries, Seed: 1})
	if got, want := CompositeStorageKB(entries), c.StorageKB(); got != want {
		t.Errorf("storage mismatch: %f vs %f", got, want)
	}
}

func TestBar(t *testing.T) {
	if bar(5, 10, 10) != "#####" {
		t.Errorf("bar(5,10,10) = %q", bar(5, 10, 10))
	}
	if bar(0, 10, 10) != "" || bar(5, 0, 10) != "" {
		t.Error("zero cases must render empty")
	}
	if bar(100, 10, 10) != "##########" {
		t.Error("bar must clamp to width")
	}
	if bar(0.01, 10, 10) != "#" {
		t.Error("tiny positive values render one mark")
	}
}
