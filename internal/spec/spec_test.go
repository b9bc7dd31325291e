package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

func intp(v int) *int    { return &v }
func boolp(v bool) *bool { return &v }

// norm normalizes a copy and returns it.
func norm(s Sim) Sim {
	s.Normalize(Defaults{})
	return s
}

func TestJSONRoundTrip(t *testing.T) {
	sims := []Sim{
		{}, // zero spec is valid JSON too
		{
			Machine: MachineSpec{
				ROB: 512, IQ: 128, PAQDepth: intp(0),
				PAQPrefetchOnMiss: boolp(false), ReplayRecovery: true,
				L1DKB: 32, MemLatency: 400, PrefetchEnabled: boolp(false),
			},
			Predictor: PredictorSpec{
				Family:  FamilyComposite,
				Entries: [core.NumComponents]int{64, 256, 128, 64},
				AM:      AMM, SmartTraining: true,
			},
			Workload: WorkloadSpec{Name: "gcc2k", Insts: 1_000_000},
			Run:      RunSpec{Seed: 42},
		},
		{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: -1}},
	}
	for i, sim := range sims {
		b, err := json.Marshal(sim)
		if err != nil {
			t.Fatalf("sim %d: marshal: %v", i, err)
		}
		var back Sim
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("sim %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(sim, back) {
			t.Errorf("sim %d: round trip changed the spec:\n%+v\n%+v", i, sim, back)
		}
	}
}

// TestNormalizeCanonicalizes verifies that equivalent spellings
// normalize to the same canonical spec (and therefore hash).
func TestNormalizeCanonicalizes(t *testing.T) {
	w := WorkloadSpec{Name: "gcc2k", Insts: 20_000}
	cases := []struct {
		name string
		a, b Sim
	}{
		{"defaults spelled out vs omitted",
			Sim{Workload: w},
			Sim{
				Machine:   MachineSpec{ROB: 224, IQ: 97, L1DKB: 64, PAQDepth: intp(24), PrefetchEnabled: boolp(true)},
				Predictor: PredictorSpec{Family: FamilyComposite, EntriesPer: 1024, AM: AMPC},
				Workload:  w,
			}},
		{"best sugar vs explicit composite",
			Sim{Predictor: PredictorSpec{Family: FamilyBest}, Workload: w},
			Sim{Predictor: PredictorSpec{Family: FamilyComposite, AM: AMPC, Fusion: true}, Workload: w}},
		{"entries_per vs per-component entries",
			Sim{Predictor: PredictorSpec{EntriesPer: 256}, Workload: w},
			Sim{Predictor: PredictorSpec{Entries: core.HomogeneousEntries(256)}, Workload: w}},
		{"eves default budget",
			Sim{Predictor: PredictorSpec{Family: FamilyEVES}, Workload: w},
			Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: 32}, Workload: w}},
		{"eves negative budgets collapse to -1",
			Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: -5}, Workload: w},
			Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: -1}, Workload: w}},
		{"single family ignores other slots' sizing sugar",
			Sim{Predictor: PredictorSpec{Family: FamilyLVP}, Workload: w},
			Sim{Predictor: PredictorSpec{Family: FamilyLVP, EntriesPer: 1024}, Workload: w}},
		{"none family erases everything else",
			Sim{Predictor: PredictorSpec{Family: FamilyNone}, Workload: w},
			Sim{Predictor: PredictorSpec{Family: FamilyNone, EntriesPer: 512, AM: AMM, Fusion: true, BudgetKB: 8}, Workload: w}},
	}
	for _, c := range cases {
		na, nb := norm(c.a), norm(c.b)
		if !reflect.DeepEqual(na, nb) {
			t.Errorf("%s: normalized specs differ:\n%+v\n%+v", c.name, na, nb)
		}
		if na.CanonicalHash() != nb.CanonicalHash() {
			t.Errorf("%s: canonical hashes differ", c.name)
		}
		// Normalization must be idempotent or hashes drift.
		again := na
		again.Normalize(Defaults{})
		if !reflect.DeepEqual(na, again) {
			t.Errorf("%s: Normalize is not idempotent: %+v vs %+v", c.name, na, again)
		}
	}
}

// TestCanonicalHashIgnoresJSONKeyOrder decodes two differently-ordered
// encodings of one spec and checks they share a canonical hash.
func TestCanonicalHashIgnoresJSONKeyOrder(t *testing.T) {
	a := `{"workload":{"name":"gcc2k","insts":20000},"predictor":{"am":"pc","family":"composite"},"machine":{"rob":512,"iq":128}}`
	b := `{"machine":{"iq":128,"rob":512},"predictor":{"family":"composite","am":"pc"},"workload":{"insts":20000,"name":"gcc2k"}}`
	var sa, sb Sim
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	sa.Normalize(Defaults{})
	sb.Normalize(Defaults{})
	if sa.CanonicalHash() != sb.CanonicalHash() {
		t.Error("differently-ordered encodings of one spec hash differently")
	}
}

func TestCanonicalHashDistinguishes(t *testing.T) {
	base := norm(Sim{Workload: WorkloadSpec{Name: "gcc2k", Insts: 20_000}})
	mutations := []func(*Sim){
		func(s *Sim) { s.Machine.ROB = 512 },
		func(s *Sim) { s.Machine.PAQDepth = intp(0) },
		func(s *Sim) { s.Machine.PrefetchEnabled = boolp(false) },
		func(s *Sim) { s.Predictor.Entries[core.CompSAP] = 2048 },
		func(s *Sim) { s.Predictor.AM = AMM },
		func(s *Sim) { s.Predictor.Fusion = true },
		func(s *Sim) { s.Workload.Name = "mcf" },
		func(s *Sim) { s.Workload.Insts = 40_000 },
		func(s *Sim) { s.Run.Seed = 7 },
	}
	seen := map[string]int{base.CanonicalHash(): -1}
	for i, mut := range mutations {
		s := base
		mut(&s)
		s.Normalize(Defaults{})
		h := s.CanonicalHash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %d collides with %d", i, prev)
		}
		seen[h] = i
	}
}

func TestDefaultsFillAndClamp(t *testing.T) {
	s := Sim{Workload: WorkloadSpec{Name: "gcc2k"}}
	s.Normalize(Defaults{Insts: 200_000, MaxInsts: 5_000_000, Seed: 0xC0FFEE})
	if s.Workload.Insts != 200_000 || s.Run.Seed != 0xC0FFEE {
		t.Errorf("defaults not filled: %+v", s)
	}
	s = Sim{Workload: WorkloadSpec{Name: "gcc2k", Insts: 10_000_000}}
	s.Normalize(Defaults{Insts: 200_000, MaxInsts: 5_000_000})
	if s.Workload.Insts != 5_000_000 {
		t.Errorf("budget not clamped: %d", s.Workload.Insts)
	}
}

// TestCanonical proves the Canonical helper is the idempotency key the
// distributed layers rely on: equivalent spellings share a key, the
// receiver is untouched, canonicalization is idempotent, and invalid
// specs never receive a key.
func TestCanonical(t *testing.T) {
	d := Defaults{Insts: 200_000, Seed: 0xC0FFEE}
	flat := Sim{Workload: WorkloadSpec{Name: "gcc2k"}}
	spelled := Sim{
		Workload:  WorkloadSpec{Name: "gcc2k", Insts: 200_000},
		Predictor: PredictorSpec{Family: FamilyComposite, EntriesPer: 1024, AM: AMPC},
		Run:       RunSpec{Seed: 0xC0FFEE},
	}
	n1, h1, err := flat.Canonical(d)
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	n2, h2, err := spelled.Canonical(d)
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if h1 != h2 {
		t.Errorf("equivalent spellings got different keys: %s vs %s", h1, h2)
	}
	if !reflect.DeepEqual(n1, n2) {
		t.Errorf("equivalent spellings canonicalized differently:\n%+v\n%+v", n1, n2)
	}
	if spelled.Predictor.EntriesPer != 1024 {
		t.Error("Canonical mutated its receiver")
	}
	// Idempotent: canonicalizing the canonical form is a fixed point.
	n3, h3, err := n1.Canonical(d)
	if err != nil || h3 != h1 || !reflect.DeepEqual(n3, n1) {
		t.Errorf("Canonical is not idempotent: hash %s vs %s, err %v", h3, h1, err)
	}
	// Invalid specs get an error and no key.
	if _, h, err := (Sim{Workload: WorkloadSpec{Name: "nope"}}).Canonical(d); err == nil || h != "" {
		t.Errorf("invalid spec: hash=%q err=%v, want empty hash and an error", h, err)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		sim  Sim
		want string // substring of the error; "" = valid
	}{
		{"valid default", Sim{Workload: WorkloadSpec{Name: "gcc2k"}}, ""},
		{"unknown workload", Sim{Workload: WorkloadSpec{Name: "nope"}}, "unknown workload"},
		{"unknown family", Sim{Predictor: PredictorSpec{Family: "quantum"}, Workload: WorkloadSpec{Name: "gcc2k"}}, "unknown predictor family"},
		{"unknown am", Sim{Predictor: PredictorSpec{AM: "psychic"}, Workload: WorkloadSpec{Name: "gcc2k"}}, "unknown accuracy monitor"},
		{"negative entries", Sim{Predictor: PredictorSpec{Entries: [core.NumComponents]int{-1, 0, 0, 0}}, Workload: WorkloadSpec{Name: "gcc2k"}}, "entries must be"},
		{"fusion with value pool", Sim{Predictor: PredictorSpec{Fusion: true, ValuePoolSlots: 64}, Workload: WorkloadSpec{Name: "gcc2k"}}, "incompatible"},
		{"negative rob", Sim{Machine: MachineSpec{ROB: -4}, Workload: WorkloadSpec{Name: "gcc2k"}}, "rob must be"},
		{"negative paq", Sim{Machine: MachineSpec{PAQDepth: intp(-1)}, Workload: WorkloadSpec{Name: "gcc2k"}}, "paq_depth"},
		{"non-power-of-two cache sets", Sim{Machine: MachineSpec{L1DKB: 100}, Workload: WorkloadSpec{Name: "gcc2k"}}, "power-of-two"},
		{"cache not multiple of line*ways", Sim{Machine: MachineSpec{L3KB: 3}, Workload: WorkloadSpec{Name: "gcc2k"}}, "multiple of"},
		{"fetch_width over its bound", Sim{Machine: MachineSpec{FetchWidth: maxWidth + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "fetch_width must be"},
		{"fetch_to_exec over its bound", Sim{Machine: MachineSpec{FetchToExec: maxLatency + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "fetch_to_exec must be"},
		{"issue_width over its bound", Sim{Machine: MachineSpec{IssueWidth: maxWidth + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "issue_width must be"},
		{"commit_width over its bound", Sim{Machine: MachineSpec{CommitWidth: maxWidth + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "commit_width must be"},
		{"ls_lanes over its bound", Sim{Machine: MachineSpec{LSLanes: maxWidth + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "ls_lanes must be"},
		{"rob over its bound", Sim{Machine: MachineSpec{ROB: maxWindow + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "rob must be"},
		{"rob at 2^31", Sim{Machine: MachineSpec{ROB: 1 << 31, MemLatency: 1 << 31}, Workload: WorkloadSpec{Name: "gcc2k"}}, "rob must be"},
		{"iq over its bound", Sim{Machine: MachineSpec{IQ: maxWindow + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "iq must be"},
		{"ldq over its bound", Sim{Machine: MachineSpec{LDQ: maxWindow + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "ldq must be"},
		{"stq over its bound", Sim{Machine: MachineSpec{STQ: maxWindow + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "stq must be"},
		{"store_forward_lat over its bound", Sim{Machine: MachineSpec{StoreForwardLat: maxLatency + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "store_forward_lat must be"},
		{"replay_penalty over its bound", Sim{Machine: MachineSpec{ReplayPenalty: maxLatency + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "replay_penalty must be"},
		{"mem_latency over its bound", Sim{Machine: MachineSpec{MemLatency: maxMemLatency + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "mem_latency must be"},
		{"prefetch_degree over its bound", Sim{Machine: MachineSpec{PrefetchDegree: maxPrefetchDegree + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "prefetch_degree must be"},
		{"paq_depth over its bound", Sim{Machine: MachineSpec{PAQDepth: intp(maxPAQDepth + 1)}, Workload: WorkloadSpec{Name: "gcc2k"}}, "paq_depth must be"},
		{"l1d_kb over its bound", Sim{Machine: MachineSpec{L1DKB: 2 * maxCacheKB}, Workload: WorkloadSpec{Name: "gcc2k"}}, "l1d_kb must be"},
		{"l1d_kb shifting to zero bytes", Sim{Machine: MachineSpec{L1DKB: 1 << 54}, Workload: WorkloadSpec{Name: "gcc2k"}}, "l1d_kb must be"},
		{"l2_kb over its bound", Sim{Machine: MachineSpec{L2KB: 2 * maxCacheKB}, Workload: WorkloadSpec{Name: "gcc2k"}}, "l2_kb must be"},
		{"l3_kb over its bound", Sim{Machine: MachineSpec{L3KB: 2 * maxCacheKB}, Workload: WorkloadSpec{Name: "gcc2k"}}, "l3_kb must be"},
		{"entries over its bound", Sim{Predictor: PredictorSpec{Entries: [core.NumComponents]int{maxEntries + 1, 0, 0, 0}}, Workload: WorkloadSpec{Name: "gcc2k"}}, "entries must be"},
		{"entries_per over its bound", Sim{Predictor: PredictorSpec{EntriesPer: 1 << 40}, Workload: WorkloadSpec{Name: "gcc2k"}}, "entries must be"},
		{"value_pool_slots over its bound", Sim{Predictor: PredictorSpec{ValuePoolSlots: maxEntries + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "value_pool_slots must be"},
		{"budget_kb over its bound", Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: maxBudgetKB + 1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "budget_kb must be"},
		{"every field at its bound", Sim{Machine: MachineSpec{FetchWidth: maxWidth, FetchToExec: maxLatency, IssueWidth: maxWidth,
			CommitWidth: maxWidth, LSLanes: maxWidth, ROB: maxWindow, IQ: maxWindow, LDQ: maxWindow, STQ: maxWindow,
			StoreForwardLat: maxLatency, PAQDepth: intp(maxPAQDepth), ReplayPenalty: maxLatency, L1DKB: maxCacheKB,
			L2KB: maxCacheKB, L3KB: maxCacheKB, MemLatency: maxMemLatency, PrefetchDegree: maxPrefetchDegree},
			Predictor: PredictorSpec{EntriesPer: maxEntries, ValuePoolSlots: maxEntries}, Workload: WorkloadSpec{Name: "gcc2k"}}, ""},
	}
	for _, c := range cases {
		sim := c.sim
		sim.Normalize(Defaults{Insts: 20_000})
		err := sim.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: validation passed, want error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMachineSpecConfig(t *testing.T) {
	def := MachineSpec{}.Config()
	if !reflect.DeepEqual(def, cpu.DefaultConfig()) {
		t.Errorf("zero machine is not the Table III default:\n%+v\n%+v", def, cpu.DefaultConfig())
	}
	paq := 0
	pf := false
	m := MachineSpec{
		ROB: 512, LSLanes: 1, PAQDepth: &paq, PrefetchEnabled: &pf,
		ReplayRecovery: true, L1DKB: 32, MemLatency: 400,
	}
	cfg := m.Config()
	if cfg.ROB != 512 || cfg.LSLanes != 1 || cfg.PAQDepth != 0 || !cfg.ReplayRecovery {
		t.Errorf("deltas not applied: %+v", cfg)
	}
	if cfg.Hierarchy.L1D.SizeBytes != 32<<10 || cfg.Hierarchy.MemLatency != 400 || cfg.Hierarchy.PrefetchEnabled {
		t.Errorf("hierarchy deltas not applied: %+v", cfg.Hierarchy)
	}
	// Untouched fields keep Table III.
	if cfg.IQ != cpu.DefaultConfig().IQ || cfg.Hierarchy.L2.SizeBytes != cpu.DefaultConfig().Hierarchy.L2.SizeBytes {
		t.Errorf("unset fields drifted from the default: %+v", cfg)
	}
	if (MachineSpec{}).Hash() != "" {
		t.Error("default machine hash is not empty")
	}
	if (MachineSpec{ROB: 224}).Hash() != "" {
		t.Error("default-restating machine hash is not empty")
	}
	if m.Hash() == "" {
		t.Error("non-default machine hashes empty")
	}
}

func TestEpochInstrs(t *testing.T) {
	if got := EpochInstrs(100_000_000); got != 5_000_000 {
		t.Errorf("EpochInstrs(100M) = %d, want 5M (paper proportion)", got)
	}
	if got := EpochInstrs(1_000); got != 2000 {
		t.Errorf("EpochInstrs(1k) = %d, want the 2000 floor", got)
	}
}

func TestNewEngineFamilies(t *testing.T) {
	mk := func(p PredictorSpec) PredictorSpec {
		p.Normalize()
		return p
	}
	if eng, err := NewEngine(mk(PredictorSpec{Family: FamilyNone}), 20_000, 1); err != nil || eng != nil {
		t.Errorf("none family: engine=%v err=%v, want nil/nil", eng, err)
	}
	for _, fam := range []Family{FamilyLVP, FamilySAP, FamilyCVP, FamilyCAP, FamilyComposite, FamilyEVES} {
		eng, err := NewEngine(mk(PredictorSpec{Family: fam}), 20_000, 1)
		if err != nil || eng == nil {
			t.Errorf("family %s: engine=%v err=%v", fam, eng, err)
		}
	}
	if _, err := NewEngine(PredictorSpec{Family: "quantum"}, 20_000, 1); err == nil {
		t.Error("unknown family built an engine")
	}
}

func TestStorageKB(t *testing.T) {
	p := PredictorSpec{Family: FamilyComposite, Entries: core.HomogeneousEntries(1024)}
	want := core.NewComposite(core.CompositeConfig{Entries: p.Entries, Seed: 1}).StorageKB()
	if got := StorageKB(p); got != want {
		t.Errorf("composite storage = %g, want %g (core accounting)", got, want)
	}
	if got := StorageKB(PredictorSpec{Family: FamilyEVES, BudgetKB: 32}); got != 32 {
		t.Errorf("eves storage = %g, want 32", got)
	}
	if got := StorageKB(PredictorSpec{Family: FamilyEVES, BudgetKB: -1}); got != 0 {
		t.Errorf("infinite eves storage = %g, want 0", got)
	}
	if got := StorageKB(PredictorSpec{Family: FamilyNone}); got != 0 {
		t.Errorf("none storage = %g, want 0", got)
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	if !sortedStrings(names) {
		t.Errorf("preset names not sorted: %v", names)
	}
	for _, n := range names {
		sim, ok := Preset(n)
		if !ok {
			t.Fatalf("preset %q vanished", n)
		}
		if PresetDescription(n) == "" {
			t.Errorf("preset %q has no description", n)
		}
		sim.Normalize(Defaults{Insts: 20_000})
		if err := sim.ValidateConfig(); err != nil {
			t.Errorf("preset %q does not validate: %v", n, err)
		}
	}
	// table3 is the zero spec by another name.
	table3, _ := Preset("table3")
	if norm(table3).CanonicalHash() != norm(Sim{}).CanonicalHash() {
		t.Error("table3 preset differs from the zero spec")
	}
	if _, ok := Preset("no-such"); ok {
		t.Error("unknown preset resolved")
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestSMTSpecNormalization pins the hash-stability contract of the SMT
// fields: a spec that spells out the single-context default must hash
// identically to a pre-SMT spec, and equivalent SMT spellings collapse.
func TestSMTSpecNormalization(t *testing.T) {
	w := WorkloadSpec{Name: "gcc2k", Insts: 20_000}
	cases := []struct {
		name string
		a, b Sim
	}{
		{"contexts 1 is the single-context default",
			Sim{Workload: w},
			Sim{Machine: MachineSpec{Contexts: 1}, Workload: w}},
		{"interleave meaningless single-context",
			Sim{Workload: w},
			Sim{Machine: MachineSpec{Contexts: 1, Interleave: InterleaveBlock}, Workload: w}},
		{"rr is the default interleave",
			Sim{Machine: MachineSpec{Contexts: 4}, Workload: w},
			Sim{Machine: MachineSpec{Contexts: 4, Interleave: InterleaveRR}, Workload: w}},
		{"homogeneous names collapse to the bare name",
			Sim{Machine: MachineSpec{Contexts: 2}, Workload: w},
			Sim{Machine: MachineSpec{Contexts: 2}, Workload: WorkloadSpec{
				Name: "gcc2k", Names: []string{"gcc2k", "gcc2k"}, Insts: 20_000}}},
		{"name filled from names[0]",
			Sim{Machine: MachineSpec{Contexts: 2}, Workload: WorkloadSpec{
				Name: "gcc2k", Names: []string{"gcc2k", "mcf"}, Insts: 20_000}},
			Sim{Machine: MachineSpec{Contexts: 2}, Workload: WorkloadSpec{
				Names: []string{"gcc2k", "mcf"}, Insts: 20_000}}},
	}
	for _, c := range cases {
		na, nb := norm(c.a), norm(c.b)
		if !reflect.DeepEqual(na, nb) {
			t.Errorf("%s: normalized specs differ:\n%+v\n%+v", c.name, na, nb)
		}
		if na.CanonicalHash() != nb.CanonicalHash() {
			t.Errorf("%s: canonical hashes differ", c.name)
		}
		again := na
		again.Normalize(Defaults{})
		if !reflect.DeepEqual(na, again) {
			t.Errorf("%s: Normalize is not idempotent: %+v vs %+v", c.name, na, again)
		}
	}
	// The context count and the mix must change the hash.
	base := norm(Sim{Workload: w}).CanonicalHash()
	smt2 := norm(Sim{Machine: MachineSpec{Contexts: 2}, Workload: w})
	if smt2.CanonicalHash() == base {
		t.Error("2-context spec hashes like the single-context spec")
	}
	mix := norm(Sim{Machine: MachineSpec{Contexts: 2}, Workload: WorkloadSpec{
		Names: []string{"gcc2k", "mcf"}, Insts: 20_000}})
	if mix.CanonicalHash() == smt2.CanonicalHash() {
		t.Error("heterogeneous mix hashes like the homogeneous spec")
	}
	if (MachineSpec{Contexts: 2}).Hash() == (MachineSpec{}).Hash() {
		t.Error("SMT machine hash matches the baseline machine (baseline caches would collide)")
	}
}

func TestSMTSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		sim  Sim
		want string
	}{
		{"valid smt4", Sim{Machine: MachineSpec{Contexts: 4}, Workload: WorkloadSpec{Name: "gcc2k"}}, ""},
		{"valid mix", Sim{Machine: MachineSpec{Contexts: 2},
			Workload: WorkloadSpec{Names: []string{"gcc2k", "mcf"}}}, ""},
		{"too many contexts", Sim{Machine: MachineSpec{Contexts: 99}, Workload: WorkloadSpec{Name: "gcc2k"}}, "contexts"},
		{"negative contexts", Sim{Machine: MachineSpec{Contexts: -1}, Workload: WorkloadSpec{Name: "gcc2k"}}, "contexts"},
		{"unknown interleave", Sim{Machine: MachineSpec{Contexts: 2, Interleave: "magic"}, Workload: WorkloadSpec{Name: "gcc2k"}}, "interleave"},
		{"names wrong length", Sim{Machine: MachineSpec{Contexts: 4},
			Workload: WorkloadSpec{Names: []string{"gcc2k", "mcf"}}}, "entries"},
		{"names on single-context", Sim{
			Workload: WorkloadSpec{Names: []string{"gcc2k", "mcf"}}}, "entries"},
		{"unknown name in mix", Sim{Machine: MachineSpec{Contexts: 2},
			Workload: WorkloadSpec{Names: []string{"gcc2k", "nope"}}}, "unknown workload"},
		{"name disagrees with names[0]", Sim{Machine: MachineSpec{Contexts: 2},
			Workload: WorkloadSpec{Name: "mcf", Names: []string{"gcc2k", "mcf"}}}, "disagrees"},
	}
	for _, c := range cases {
		sim := c.sim
		sim.Normalize(Defaults{Insts: 20_000})
		err := sim.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: validation passed, want error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSMTSpecConfigAndStreams(t *testing.T) {
	m := MachineSpec{Contexts: 4}
	cfg := m.Config()
	if cfg.Contexts != 4 || cfg.SMTQuantum != 0 {
		t.Errorf("rr smt4 config: contexts=%d quantum=%d", cfg.Contexts, cfg.SMTQuantum)
	}
	m.Interleave = InterleaveBlock
	if cfg := m.Config(); cfg.SMTQuantum != blockQuantum {
		t.Errorf("block interleave quantum = %d, want %d", cfg.SMTQuantum, blockQuantum)
	}
	// Single-context specs must produce exactly the default config so
	// pooled pipelines are shared with pre-SMT callers.
	if got := (MachineSpec{}).Config(); !reflect.DeepEqual(got, cpu.DefaultConfig()) {
		t.Errorf("zero machine config drifted: %+v", got)
	}

	sim := norm(Sim{Machine: MachineSpec{Contexts: 2}, Workload: WorkloadSpec{Name: "gcc2k", Insts: 20_000}})
	if got := sim.ContextWorkloads(); !reflect.DeepEqual(got, []string{"gcc2k", "gcc2k"}) {
		t.Errorf("homogeneous ContextWorkloads = %v", got)
	}
	if got := sim.ContextStreams(); !reflect.DeepEqual(got, []string{"gcc2k", "gcc2k#1"}) {
		t.Errorf("homogeneous ContextStreams = %v", got)
	}
	if got := sim.WorkloadLabel(); got != "gcc2k" {
		t.Errorf("homogeneous label = %q", got)
	}
	mix := norm(Sim{Machine: MachineSpec{Contexts: 2}, Workload: WorkloadSpec{
		Names: []string{"gcc2k", "mcf"}, Insts: 20_000}})
	if got := mix.ContextStreams(); !reflect.DeepEqual(got, []string{"gcc2k", "mcf#1"}) {
		t.Errorf("mix ContextStreams = %v", got)
	}
	if got := mix.WorkloadLabel(); got != "gcc2k+mcf" {
		t.Errorf("mix label = %q", got)
	}
	sc := norm(Sim{Workload: WorkloadSpec{Name: "gcc2k", Insts: 20_000}})
	if got := sc.ContextStreams(); !reflect.DeepEqual(got, []string{"gcc2k"}) {
		t.Errorf("single-context ContextStreams = %v", got)
	}
}

func TestSMTPresets(t *testing.T) {
	for name, want := range map[string]int{"smt2": 2, "smt4": 4} {
		sim, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		sim.Workload = WorkloadSpec{Name: "gcc2k"}
		n, _, err := sim.Canonical(Defaults{Insts: 20_000})
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if n.Machine.NumContexts() != want {
			t.Errorf("preset %q simulates %d contexts, want %d", name, n.Machine.NumContexts(), want)
		}
	}
}

// TestValidateExternalWorkload proves specs referencing an uploaded
// trace by content address ("ext:<hash>") resolve through the same
// registry path as synthetic workloads: validation fails while the
// trace is unknown and passes once it is registered.
func TestValidateExternalWorkload(t *testing.T) {
	const name = "ext:specvalidate"
	sim := Sim{Workload: WorkloadSpec{Name: name}}
	sim.Normalize(Defaults{Insts: 1_000})
	if err := sim.Validate(); err == nil {
		t.Fatal("unregistered external workload validated")
	}

	rep := trace.NewReplay(
		[]trace.Inst{{PC: 1, Op: trace.OpALU, Dst: 1, Lat: 1}},
		mem.NewBacking(0))
	if _, err := trace.RegisterExternal(name, rep, true); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trace.UnregisterExternal(name) })

	if err := sim.Validate(); err != nil {
		t.Fatalf("registered external workload failed validation: %v", err)
	}
	// External traces hash like any workload name: same content, same
	// canonical spec hash.
	if sim.CanonicalHash() == "" {
		t.Fatal("external spec has no canonical hash")
	}
}
