package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/trace"
)

// goldenDigestInsts is the per-context budget of TestGoldenStatsDigests:
// long enough for the scaled M-AM and fusion epochs (EpochInstrs floors
// them at 2000) to turn over several times.
const goldenDigestInsts = 20_000

// goldenDigestWorkloads span three behaviour profiles (int, js, media)
// on which every component and EVES deliver predictions within the
// budget.
var goldenDigestWorkloads = []string{"gcc2k", "regexp", "mp3player"}

// goldenDigestSims names every configuration the digests pin beyond the
// presets: each single-component family, the composite filters and
// knobs the presets leave off, and the no-VP core.
var goldenDigestSims = map[string]PredictorSpec{
	"none":             {Family: FamilyNone},
	"lvp":              {Family: FamilyLVP},
	"sap":              {Family: FamilySAP},
	"cvp":              {Family: FamilyCVP},
	"cap":              {Family: FamilyCAP},
	"composite-mam":    {Family: FamilyComposite, EntriesPer: 256, AM: AMM},
	"composite-smart":  {Family: FamilyComposite, EntriesPer: 256, SmartTraining: true},
	"composite-pool":   {Family: FamilyComposite, EntriesPer: 256, ValuePoolSlots: 16},
	"composite-pcinf":  {Family: FamilyComposite, EntriesPer: 256, AM: AMPCInf},
	"composite-fusion": {Family: FamilyComposite, EntriesPer: 256, AM: AMNone, Fusion: true},
}

// goldenDigests holds the stats digest of every (configuration,
// workload) run, keyed "config/workload" ("@insts" marks the long
// runs). Presets appear under their preset names (eves-8KB, eves-32KB
// and eves-inf cover EVES's budgets).
var goldenDigests = map[string]string{
	"best-9.6KB/gcc2k@200000":    "ebbf102d9956b669",
	"best-9.6KB/regexp@200000":   "51a86eca190693f9",
	"best-3.6KB/gcc2k":           "adc5c025b3cf0e8e",
	"best-3.6KB/mp3player":       "d4a42ec4f91f7f33",
	"best-3.6KB/regexp":          "a1222995500a40f6",
	"best-9.6KB/gcc2k":           "a4c2ba0622bc123f",
	"best-9.6KB/mp3player":       "d4a42ec4f91f7f33",
	"best-9.6KB/regexp":          "349bcf962e0c89ac",
	"cap/gcc2k":                  "8e20001721843c6f",
	"cap/mp3player":              "af24056b7df6ec82",
	"cap/regexp":                 "a3df5d37a146f3dd",
	"composite-fusion/gcc2k":     "4b4f4007cc2d2517",
	"composite-fusion/mp3player": "d4a42ec4f91f7f33",
	"composite-fusion/regexp":    "6e251f3ec29a269d",
	"composite-mam/gcc2k":        "4b4f4007cc2d2517",
	"composite-mam/mp3player":    "b431b10fea75915c",
	"composite-mam/regexp":       "1b4c25f1ffd70a51",
	"composite-pcinf/gcc2k":      "a4c2ba0622bc123f",
	"composite-pcinf/mp3player":  "b431b10fea75915c",
	"composite-pcinf/regexp":     "8c1cfa14cb5b4fea",
	"composite-pool/gcc2k":       "a7bc2dabb533e026",
	"composite-pool/mp3player":   "401ef5450ef7def9",
	"composite-pool/regexp":      "5230f5a60c738fc1",
	"composite-smart/gcc2k":      "8e206640eb7d19e3",
	"composite-smart/mp3player":  "1276c0693ac056ef",
	"composite-smart/regexp":     "79379b11c3694bbc",
	"cvp/gcc2k":                  "a4043c54bfbea79b",
	"cvp/mp3player":              "d082fc889fe0ebb4",
	"cvp/regexp":                 "96e89d15dd7fb72d",
	"eves-32KB/gcc2k":            "c891b3fe3254cd00",
	"eves-32KB/mp3player":        "06bfaef3734db64b",
	"eves-32KB/regexp":           "210e768e468d0c50",
	"eves-8KB/gcc2k":             "046414eb46b801d4",
	"eves-8KB/mp3player":         "f7675742e737ef32",
	"eves-8KB/regexp":            "c9d0e82207dbb251",
	"eves-inf/gcc2k":             "b00ce78a813d5198",
	"eves-inf/mp3player":         "44f6c41f0f2f099a",
	"eves-inf/regexp":            "585069a82d298b09",
	"lvp/gcc2k":                  "6640492774ba9c9f",
	"lvp/mp3player":              "3a2918db450c8d95",
	"lvp/regexp":                 "5beb921daf38249d",
	"none/gcc2k":                 "2ad701513e633fb2",
	"none/mp3player":             "d0110c0fc0ab3dc7",
	"none/regexp":                "07e80f2ee3c528b4",
	"sap/gcc2k":                  "3215a38f145e7fcb",
	"sap/mp3player":              "2d115b38822969bd",
	"sap/regexp":                 "5c1fb1ba07f96779",
	"smt2/gcc2k":                 "3315ca153efa4a90",
	"smt2/mp3player":             "aa95202b64d50e67",
	"smt2/regexp":                "1dda1fbcfe3ce988",
	"smt4/gcc2k":                 "55e8579320470e64",
	"smt4/mp3player":             "156fc21eb8143b3d",
	"smt4/regexp":                "cb223d6e9df8797a",
	"table3/gcc2k":               "d4885c1f6e9ef223",
	"table3/mp3player":           "81056c66dc7b55ce",
	"table3/regexp":              "04b048b239b881f6",
}

// goldenDigestLong adds two runs of the sim-vp headline preset at ten
// times the budget. A change that only matters when two loads alias in
// a table set (the tag salt, for one) first moves output there.
var goldenDigestLong = []string{"gcc2k", "regexp"}

const goldenDigestLongInsts = 200_000

// TestGoldenStatsDigests pins the simulated output of the predictors
// themselves. TestGoldenDifferential (internal/cpu) feeds the same
// engine to the reference and the live pipeline, so a change inside
// core or eves moves both sides together and passes; here every run's
// stats.Run is compared with a digest recorded before the change. A
// deliberate change to simulated behaviour re-records the digests
// (the failure message prints each new value) and says so in
// CHANGES.md.
func TestGoldenStatsDigests(t *testing.T) {
	type run struct {
		key string
		sim Sim
	}
	var runs []run
	add := func(key string, sim Sim, w string, insts uint64) {
		sim.Workload = WorkloadSpec{Name: w, Insts: insts}
		sim.Normalize(Defaults{})
		if err := sim.Validate(); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		runs = append(runs, run{key, sim})
	}
	sims := make(map[string]Sim)
	for _, name := range PresetNames() {
		sims[name], _ = Preset(name)
	}
	for name, p := range goldenDigestSims {
		if _, dup := sims[name]; dup {
			t.Fatalf("configuration %q shadows a preset", name)
		}
		sims[name] = Sim{Predictor: p}
	}
	for name, sim := range sims {
		for _, w := range goldenDigestWorkloads {
			add(name+"/"+w, sim, w, goldenDigestInsts)
		}
	}
	best, _ := Preset("best-9.6KB")
	for _, w := range goldenDigestLong {
		add(fmt.Sprintf("best-9.6KB/%s@%d", w, goldenDigestLongInsts), best, w, goldenDigestLongInsts)
	}

	for _, r := range runs {
		got := goldenDigest(t, r.sim)
		if want, ok := goldenDigests[r.key]; !ok {
			t.Errorf("%s: no recorded digest; this run digests to %q", r.key, got)
		} else if got != want {
			t.Errorf("%s: stats digest %s, recorded %s", r.key, got, want)
		}
	}
	if len(runs) != len(goldenDigests) {
		t.Errorf("ran %d configurations, %d digests recorded (remove stale ones)", len(runs), len(goldenDigests))
	}
}

// goldenDigest simulates a normalized spec on a pooled pipeline and
// returns the SHA-256 (first 8 bytes, hex) of its JSON-encoded runs: the
// merged run, then each context's run on an SMT machine.
func goldenDigest(t *testing.T, sim Sim) string {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(sim.WorkloadLabel()))
	eng, err := NewEngine(sim.Predictor, sim.Workload.Insts, core.SplitMix64(h.Sum64()))
	if err != nil {
		t.Fatal(err)
	}
	streams := sim.ContextStreams()
	gens := make([]trace.Generator, len(streams))
	for i, s := range streams {
		g, ok := trace.BuildStream(s, sim.Workload.Insts)
		if !ok {
			t.Fatalf("unknown stream %q", s)
		}
		gens[i] = g
	}
	p := cpu.Acquire(sim.Machine.Config(), eng)
	defer cpu.Release(p)
	var runs []stats.Run
	if len(gens) == 1 {
		runs = append(runs, p.Run(gens[0], sim.Workload.Name, "golden"))
	} else {
		runs = append(runs, p.RunSMT(gens, sim.ContextWorkloads(), sim.WorkloadLabel(), "golden"))
		for i := 0; i < p.NumContexts(); i++ {
			runs = append(runs, p.ContextRun(i))
		}
	}
	data, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
