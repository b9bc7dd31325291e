// Package spec defines the declarative simulation specification shared
// by every layer of the system: the CLIs compile their flags into it,
// the daemon accepts it over the wire (and normalizes legacy flat
// requests into it), and the experiment runners express their
// configuration points with it. A Sim is serializable (JSON),
// validated, and canonically hashable, so equivalent requests — however
// they were spelled — map to the same cache entry and the same engine.
//
// The spec is a *delta* encoding: every zero field means "the paper's
// default" (Table III for the machine, the evaluation defaults for the
// predictor), so the zero value of Sim plus a workload name is a
// complete, valid simulation. Normalize canonicalizes a spec in place
// (filling defaults, folding sugar families like "best" into their
// composite expansion, and erasing fields that restate defaults);
// CanonicalHash then hashes the canonical JSON encoding, which is
// deterministic because Go marshals struct fields in declaration order.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/trace"
)

// Family names a predictor family. The sugar family "best" (the
// paper's fully-optimized composite: PC-AM throttling plus table
// fusion) is canonicalized by Normalize into its composite expansion,
// so "best" and the equivalent explicit composite hash identically.
type Family string

// The predictor families.
const (
	FamilyNone      Family = "none"
	FamilyLVP       Family = "lvp"
	FamilySAP       Family = "sap"
	FamilyCVP       Family = "cvp"
	FamilyCAP       Family = "cap"
	FamilyComposite Family = "composite"
	FamilyBest      Family = "best"
	FamilyEVES      Family = "eves"
)

// families is the acceptance set for validation.
var families = map[Family]bool{
	FamilyNone: true, FamilyLVP: true, FamilySAP: true, FamilyCVP: true,
	FamilyCAP: true, FamilyComposite: true, FamilyBest: true, FamilyEVES: true,
}

// Component returns the core component a single-component family
// models, and whether the family is single-component.
func (f Family) Component() (core.Component, bool) {
	switch f {
	case FamilyLVP:
		return core.CompLVP, true
	case FamilySAP:
		return core.CompSAP, true
	case FamilyCVP:
		return core.CompCVP, true
	case FamilyCAP:
		return core.CompCAP, true
	}
	return 0, false
}

// AMMode selects the composite's accuracy monitor (Section V-B).
type AMMode string

// The accuracy monitor modes. The empty string is normalized to the
// family's default (PC-AM(64) for composites, none for single
// components, matching the evaluation's defaults).
const (
	AMNone  AMMode = "none"
	AMM     AMMode = "m"     // M-AM, epoch-based, scaled to the run length
	AMPC    AMMode = "pc"    // PC-AM with 64 entries
	AMPCInf AMMode = "pcinf" // PC-AM, infinite (limit study)
)

var amModes = map[AMMode]bool{AMNone: true, AMM: true, AMPC: true, AMPCInf: true}

// MachineSpec describes the simulated core as deltas over the paper's
// Table III baseline: every zero (or nil) field keeps the default noted
// in its comment. Pointer fields distinguish "unset" from a meaningful
// zero/false (e.g. PAQDepth 0 = unbounded).
type MachineSpec struct {
	// Front end and widths.
	FetchWidth  int `json:"fetch_width,omitempty"`   // 4
	FetchToExec int `json:"fetch_to_exec,omitempty"` // 13 cycles
	IssueWidth  int `json:"issue_width,omitempty"`   // 8
	CommitWidth int `json:"commit_width,omitempty"`  // 8
	LSLanes     int `json:"ls_lanes,omitempty"`      // 2

	// Window sizes.
	ROB int `json:"rob,omitempty"` // 224
	IQ  int `json:"iq,omitempty"`  // 97
	LDQ int `json:"ldq,omitempty"` // 72
	STQ int `json:"stq,omitempty"` // 56

	StoreForwardLat int `json:"store_forward_lat,omitempty"` // 4 cycles

	// Value-prediction plumbing (DESIGN.md §5a).
	PAQDepth               *int  `json:"paq_depth,omitempty"`                // 24; 0 = unbounded
	PAQPrefetchOnMiss      *bool `json:"paq_prefetch_on_miss,omitempty"`     // true
	SuppressStoreConflicts *bool `json:"suppress_store_conflicts,omitempty"` // true
	ReplayRecovery         bool  `json:"replay_recovery,omitempty"`          // false (paper: flush)
	ReplayPenalty          int   `json:"replay_penalty,omitempty"`           // 12 cycles

	// Hierarchy knobs (geometry beyond sizes keeps Table III).
	L1DKB           int   `json:"l1d_kb,omitempty"`           // 64
	L2KB            int   `json:"l2_kb,omitempty"`            // 512
	L3KB            int   `json:"l3_kb,omitempty"`            // 8192
	MemLatency      int   `json:"mem_latency,omitempty"`      // 200 cycles
	PrefetchDegree  int   `json:"prefetch_degree,omitempty"`  // 4
	PrefetchEnabled *bool `json:"prefetch_enabled,omitempty"` // true

	// SMT (DESIGN.md §14). Contexts is the hardware context count; 0 and
	// 1 both mean the paper's single-context core and normalize to 0, so
	// existing specs hash unchanged. Interleave picks the fetch
	// interleave policy: "rr" (the default, one instruction per context
	// per turn) or "block" (64-instruction quanta, coarser sharing).
	Contexts   int    `json:"contexts,omitempty"`
	Interleave string `json:"interleave,omitempty"`
}

// The interleave policies and the block policy's quantum.
const (
	InterleaveRR    = "rr"
	InterleaveBlock = "block"

	blockQuantum = 64
)

// Normalize erases fields that restate a Table III default, so a spec
// that spells out the baseline hashes identically to the zero spec.
func (m *MachineSpec) Normalize() {
	zeroIf(&m.FetchWidth, 4)
	zeroIf(&m.FetchToExec, 13)
	zeroIf(&m.IssueWidth, 8)
	zeroIf(&m.CommitWidth, 8)
	zeroIf(&m.LSLanes, 2)
	zeroIf(&m.ROB, 224)
	zeroIf(&m.IQ, 97)
	zeroIf(&m.LDQ, 72)
	zeroIf(&m.STQ, 56)
	zeroIf(&m.StoreForwardLat, 4)
	if m.PAQDepth != nil && *m.PAQDepth == 24 {
		m.PAQDepth = nil
	}
	nilIfBool(&m.PAQPrefetchOnMiss, true)
	nilIfBool(&m.SuppressStoreConflicts, true)
	zeroIf(&m.ReplayPenalty, 12)
	zeroIf(&m.L1DKB, 64)
	zeroIf(&m.L2KB, 512)
	zeroIf(&m.L3KB, 8192)
	zeroIf(&m.MemLatency, 200)
	zeroIf(&m.PrefetchDegree, 4)
	nilIfBool(&m.PrefetchEnabled, true)
	zeroIf(&m.Contexts, 1)
	if m.Contexts <= 1 {
		// Interleave policy is meaningless on a single-context core.
		m.Interleave = ""
	} else if m.Interleave == InterleaveRR {
		m.Interleave = ""
	}
}

// NumContexts returns the simulated hardware context count (at least 1).
func (m MachineSpec) NumContexts() int {
	if m.Contexts <= 1 {
		return 1
	}
	return m.Contexts
}

func zeroIf(v *int, def int) {
	if *v == def {
		*v = 0
	}
}

func nilIfBool(v **bool, def bool) {
	if *v != nil && **v == def {
		*v = nil
	}
}

// Hash returns a short canonical hash of the machine deltas; the
// default machine hashes to the empty string (so cache keys for the
// baseline machine stay stable across spec versions).
func (m MachineSpec) Hash() string {
	n := m
	n.Normalize()
	if n == (MachineSpec{}) {
		return ""
	}
	return hashJSON(n)
}

// Validate rejects machine deltas the core model cannot simulate.
func (m MachineSpec) Validate() error {
	for _, f := range []struct {
		name string
		v    int
		max  int
	}{
		{"fetch_width", m.FetchWidth, maxWidth}, {"fetch_to_exec", m.FetchToExec, maxLatency},
		{"issue_width", m.IssueWidth, maxWidth}, {"commit_width", m.CommitWidth, maxWidth},
		{"ls_lanes", m.LSLanes, maxWidth}, {"rob", m.ROB, maxWindow}, {"iq", m.IQ, maxWindow},
		{"ldq", m.LDQ, maxWindow}, {"stq", m.STQ, maxWindow}, {"store_forward_lat", m.StoreForwardLat, maxLatency},
		{"replay_penalty", m.ReplayPenalty, maxLatency}, {"mem_latency", m.MemLatency, maxMemLatency},
		{"prefetch_degree", m.PrefetchDegree, maxPrefetchDegree},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("machine: %s must be in [0, %d]", f.name, f.max)
		}
	}
	if m.PAQDepth != nil && (*m.PAQDepth < 0 || *m.PAQDepth > maxPAQDepth) {
		return fmt.Errorf("machine: paq_depth must be in [0, %d] (0 = unbounded)", maxPAQDepth)
	}
	// Cache sizes must keep a power-of-two set count with Table III
	// geometry (64B/128B lines, 4/8/16 ways).
	for _, c := range []struct {
		name           string
		kb, line, ways int
	}{
		{"l1d_kb", m.L1DKB, 64, 4},
		{"l2_kb", m.L2KB, 128, 8},
		{"l3_kb", m.L3KB, 128, 16},
	} {
		if c.kb == 0 {
			continue
		}
		if c.kb < 0 || c.kb > maxCacheKB {
			return fmt.Errorf("machine: %s must be in [1, %d]", c.name, maxCacheKB)
		}
		bytes := c.kb << 10
		if bytes%(c.line*c.ways) != 0 {
			return fmt.Errorf("machine: %s (%dKB) must be a multiple of line size × ways (%dB)", c.name, c.kb, c.line*c.ways)
		}
		sets := bytes / c.line / c.ways
		if sets&(sets-1) != 0 {
			return fmt.Errorf("machine: %s (%dKB) must give a power-of-two set count, got %d sets", c.name, c.kb, sets)
		}
	}
	if m.Contexts < 0 || m.Contexts > MaxContexts {
		return fmt.Errorf("machine: contexts must be in [0, %d]", MaxContexts)
	}
	switch m.Interleave {
	case "", InterleaveRR, InterleaveBlock:
	default:
		return fmt.Errorf("machine: unknown interleave policy %q (want rr|block)", m.Interleave)
	}
	return nil
}

// Upper bounds on the sizes, widths and latencies a spec may ask for.
// Each leaves headroom over what the experiments use (the window
// sweep's 896-entry ROB, Fig 3's and Table VI's 4,096-entry tables,
// EVES at 32KB), and together they bound what one simulation
// allocates: the pipeline's per-context cycle rings grow with ROB ×
// the worst instruction latency, and every table and cache with its
// size (TestBoundsAllocation builds a machine at every bound at once).
const (
	maxWidth          = 64   // fetch, issue and commit width, load/store lanes
	maxWindow         = 1024 // ROB, IQ, LDQ and STQ entries
	maxLatency        = 64   // fetch-to-execute depth, forwarding and replay cycles
	maxMemLatency     = 512  // cycles
	maxPrefetchDegree = 64
	maxPAQDepth       = 1024
	maxCacheKB        = 1 << 16 // per cache level
	maxEntries        = 1 << 16 // per component table, and shared value-array slots
	maxBudgetKB       = 1024    // EVES; a negative budget asks for its unbounded tables
)

// MaxContexts bounds the simulated SMT width. Eight covers every
// shipped SMT design with headroom; the bound mostly protects the
// per-context ring allocations from absurd sweep axes.
const MaxContexts = 8

// PredictorSpec describes the load value predictor: a family plus the
// composite's per-component sizing and filter/optimization knobs, or
// the EVES storage budget.
type PredictorSpec struct {
	// Family is one of none|lvp|sap|cvp|cap|composite|best|eves
	// ("" = composite).
	Family Family `json:"family,omitempty"`

	// Entries sizes the component tables [LVP, SAP, CVP, CAP]. All
	// zeros selects 1024 entries per present component.
	Entries [core.NumComponents]int `json:"entries"`

	// EntriesPer is scalar sugar: N entries for every component of a
	// composite (or the single component of a single family). Normalize
	// expands it into Entries and clears it.
	EntriesPer int `json:"entries_per,omitempty"`

	// AM selects the accuracy monitor ("" = pc for composites, none for
	// single components).
	AM AMMode `json:"am,omitempty"`

	// SmartTraining enables the selective training policy (Section V-D).
	SmartTraining bool `json:"smart_training,omitempty"`

	// Fusion enables dynamic table fusion (Section V-E), with epochs
	// scaled to the run length like the accuracy monitors.
	Fusion bool `json:"fusion,omitempty"`

	// ValuePoolSlots switches LVP/CVP to the decoupled shared value
	// array of Section III-B with this many 64-bit slots (0 = direct
	// per-entry values). Incompatible with fusion.
	ValuePoolSlots int `json:"value_pool_slots,omitempty"`

	// BudgetKB is the EVES storage budget in KB (eves family only;
	// 0 = 32, any negative value = infinite, canonicalized to -1).
	BudgetKB int `json:"budget_kb,omitempty"`
}

// Normalize canonicalizes the predictor: defaults are filled, the
// "best" sugar family is expanded, sizing sugar is resolved, and
// fields meaningless for the family are erased so equivalent specs
// hash identically.
func (p *PredictorSpec) Normalize() {
	if p.Family == "" {
		p.Family = FamilyComposite
	}
	if p.Family == FamilyBest {
		p.Family = FamilyComposite
		p.AM = AMPC
		p.Fusion = true
	}
	switch p.Family {
	case FamilyNone:
		*p = PredictorSpec{Family: FamilyNone}
		return
	case FamilyEVES:
		kb := p.BudgetKB
		if kb == 0 {
			kb = 32
		}
		if kb < 0 {
			kb = -1
		}
		*p = PredictorSpec{Family: FamilyEVES, BudgetKB: kb}
		return
	}
	// Composite families (including the four single-component ones).
	p.BudgetKB = 0
	per := p.EntriesPer
	p.EntriesPer = 0
	if comp, ok := p.Family.Component(); ok {
		n := p.Entries[comp]
		if per > 0 {
			n = per
		}
		if n == 0 {
			n = 1024
		}
		p.Entries = [core.NumComponents]int{}
		p.Entries[comp] = n
		if p.AM == "" {
			p.AM = AMNone
		}
		return
	}
	// Full composite.
	if per > 0 {
		p.Entries = core.HomogeneousEntries(per)
	}
	if p.Entries == ([core.NumComponents]int{}) {
		p.Entries = core.HomogeneousEntries(1024)
	}
	if p.AM == "" {
		p.AM = AMPC
	}
}

// Validate rejects unknown families/modes and inconsistent knobs. Call
// after Normalize.
func (p PredictorSpec) Validate() error {
	if !families[p.Family] {
		return fmt.Errorf("unknown predictor family %q (want none|lvp|sap|cvp|cap|composite|best|eves)", p.Family)
	}
	for _, n := range p.Entries {
		if n < 0 || n > maxEntries {
			return fmt.Errorf("entries must be in [0, %d]", maxEntries)
		}
	}
	if p.EntriesPer < 0 || p.EntriesPer > maxEntries {
		return fmt.Errorf("entries_per must be in [0, %d]", maxEntries)
	}
	if p.ValuePoolSlots < 0 || p.ValuePoolSlots > maxEntries {
		return fmt.Errorf("value_pool_slots must be in [0, %d]", maxEntries)
	}
	if p.BudgetKB > maxBudgetKB {
		return fmt.Errorf("budget_kb must be at most %d (negative = unbounded)", maxBudgetKB)
	}
	if p.AM != "" && !amModes[p.AM] {
		return fmt.Errorf("unknown accuracy monitor %q (want none|m|pc|pcinf)", p.AM)
	}
	if p.Fusion && p.ValuePoolSlots > 0 {
		return fmt.Errorf("table fusion is incompatible with shared value arrays")
	}
	return nil
}

// WorkloadSpec names the workload and its instruction budget.
type WorkloadSpec struct {
	// Name is a workload from trace.Workloads (see GET /v1/workloads),
	// or an uploaded external trace referenced by content address as
	// "ext:<hash>" (see POST /v1/workloads and internal/tracein). Both
	// kinds resolve through the same registry, so spec hashing, the
	// result warehouse, and sweep idempotency treat them identically —
	// the hash pins the exact trace content, making results keyed by
	// this spec reproducible across processes that hold the same trace.
	// On a multi-context machine it is the workload every context runs
	// (each on its own independently-seeded stream) unless Names assigns
	// them individually; external traces are a single recording, so
	// salted context streams replay lockstep copies (DESIGN.md §15).
	Name string `json:"name"`

	// Names assigns one workload per hardware context, for heterogeneous
	// SMT mixes. When set, its length must equal the machine's context
	// count and Names[0] must equal Name (Normalize enforces both: it
	// fills Name from Names[0], and collapses a homogeneous Names back to
	// the bare Name so equivalent spellings hash identically).
	Names []string `json:"names,omitempty"`

	// Insts is the per-context instruction budget (0 = the caller's
	// default). A multi-context run simulates Insts instructions on
	// every context.
	Insts uint64 `json:"insts,omitempty"`
}

// RunSpec holds per-run knobs that change the result without changing
// what is being measured.
type RunSpec struct {
	// Seed drives all predictor randomness (0 = the caller's default).
	Seed uint64 `json:"seed,omitempty"`
}

// Sim is the complete declarative description of one simulation.
type Sim struct {
	Machine   MachineSpec   `json:"machine"`
	Predictor PredictorSpec `json:"predictor"`
	Workload  WorkloadSpec  `json:"workload"`
	Run       RunSpec       `json:"run"`
}

// Defaults supplies the caller's environment-level defaults applied by
// Normalize: a zero Defaults leaves zero budget/seed fields in place.
type Defaults struct {
	// Insts fills Workload.Insts when zero.
	Insts uint64

	// MaxInsts clamps Workload.Insts when positive.
	MaxInsts uint64

	// Seed fills Run.Seed when zero.
	Seed uint64
}

// Normalize canonicalizes the spec in place under the given defaults.
// Normalization is idempotent: normalizing a normalized spec is a
// no-op, so hashes computed after Normalize are stable.
func (s *Sim) Normalize(d Defaults) {
	s.Machine.Normalize()
	s.Predictor.Normalize()
	if len(s.Workload.Names) > 0 {
		if s.Workload.Name == "" {
			s.Workload.Name = s.Workload.Names[0]
		}
		homogeneous := true
		for _, n := range s.Workload.Names {
			if n != s.Workload.Name {
				homogeneous = false
				break
			}
		}
		if homogeneous {
			s.Workload.Names = nil
		}
	}
	if s.Workload.Insts == 0 {
		s.Workload.Insts = d.Insts
	}
	if d.MaxInsts > 0 && s.Workload.Insts > d.MaxInsts {
		s.Workload.Insts = d.MaxInsts
	}
	if s.Run.Seed == 0 {
		s.Run.Seed = d.Seed
	}
}

// Validate rejects specs the system cannot simulate. Call after
// Normalize.
func (s Sim) Validate() error {
	if _, ok := trace.ByName(s.Workload.Name); !ok {
		return fmt.Errorf("unknown workload %q", s.Workload.Name)
	}
	for _, n := range s.Workload.Names {
		if _, ok := trace.ByName(n); !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	if len(s.Workload.Names) > 0 {
		if got, want := len(s.Workload.Names), s.Machine.NumContexts(); got != want {
			return fmt.Errorf("workload names %d entries for a %d-context machine", got, want)
		}
		if s.Workload.Names[0] != s.Workload.Name {
			return fmt.Errorf("workload name %q disagrees with names[0] %q", s.Workload.Name, s.Workload.Names[0])
		}
	}
	return s.ValidateConfig()
}

// ContextWorkloads returns the per-context workload names, one per
// hardware context: the explicit Names assignment, or Name replicated
// across every context. The spec must be normalized.
func (s Sim) ContextWorkloads() []string {
	n := s.Machine.NumContexts()
	if len(s.Workload.Names) == n {
		return s.Workload.Names
	}
	names := make([]string, n)
	for i := range names {
		names[i] = s.Workload.Name
	}
	return names
}

// ContextStreams returns the per-context stream names: context i runs
// stream trace.StreamName(workload_i, i), so every context — including
// two contexts of the same workload — executes an independently-seeded
// stream, with context 0 on the canonical single-context stream.
func (s Sim) ContextStreams() []string {
	names := s.ContextWorkloads()
	streams := make([]string, len(names))
	for i, n := range names {
		streams[i] = trace.StreamName(n, i)
	}
	return streams
}

// WorkloadLabel returns the run label of the spec's workload mix: the
// bare workload name single-context and for homogeneous SMT mixes,
// "a+b+c" for heterogeneous ones.
func (s Sim) WorkloadLabel() string {
	if len(s.Workload.Names) == 0 {
		return s.Workload.Name
	}
	label := s.Workload.Names[0]
	for _, n := range s.Workload.Names[1:] {
		label += "+" + n
	}
	return label
}

// ValidateConfig validates everything except the workload name, for
// callers simulating recorded traces instead of named workloads.
func (s Sim) ValidateConfig() error {
	if err := s.Predictor.Validate(); err != nil {
		return err
	}
	return s.Machine.Validate()
}

// CanonicalHash returns the spec's canonical identity: a short hex hash
// of the canonical JSON encoding. The receiver must already be
// normalized (Normalize makes equivalent spellings encode identically;
// Go marshals struct fields in declaration order, so the encoding is
// deterministic regardless of how the incoming JSON ordered its keys).
func (s Sim) CanonicalHash() string {
	return hashJSON(s)
}

// Canonical normalizes and validates a copy of s under defaults d,
// returning the canonical spec and its hash. The hash is the system's
// idempotency key: any two nodes that canonicalize the same simulation
// — a retry after a timeout, a re-dispatch after a worker death, a
// duplicate point inside a sweep — arrive at the same key and therefore
// the same cache entry, so executing a spec more than once is always
// safe and the results are interchangeable.
func (s Sim) Canonical(d Defaults) (Sim, string, error) {
	n := s
	n.Normalize(d)
	if err := n.Validate(); err != nil {
		return n, "", err
	}
	return n, n.CanonicalHash(), nil
}

func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Unreachable: specs contain only marshalable fields.
		panic("spec: canonical marshal failed: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// preset is one named point of the paper's evaluation matrix.
type preset struct {
	desc string
	sim  Sim
}

// presets maps preset names to specs. Machine defaults are Table III
// throughout; the composite entries come from the Table VI winners.
var presets = map[string]preset{
	"table3": {
		desc: "Table III machine, default composite (PC-AM, 1K entries/component)",
		sim:  Sim{Predictor: PredictorSpec{Family: FamilyComposite}},
	},
	"best-9.6KB": {
		desc: "the paper's headline 9.6KB composite: Table VI 1K-budget winner + PC-AM + fusion",
		sim: Sim{Predictor: PredictorSpec{
			Family:  FamilyBest,
			Entries: [core.NumComponents]int{256, 256, 256, 256},
		}},
	},
	"best-3.6KB": {
		desc: "the Table VI 512-budget winner + PC-AM + fusion",
		sim: Sim{Predictor: PredictorSpec{
			Family:  FamilyBest,
			Entries: [core.NumComponents]int{64, 256, 128, 64},
		}},
	},
	"eves-8KB": {
		desc: "EVES (CVP-1 winner) at the paper's 8KB comparison point",
		sim:  Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: 8}},
	},
	"eves-32KB": {
		desc: "EVES (CVP-1 winner) at the paper's 32KB comparison point",
		sim:  Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: 32}},
	},
	"eves-inf": {
		desc: "EVES with unbounded storage (limit study)",
		sim:  Sim{Predictor: PredictorSpec{Family: FamilyEVES, BudgetKB: -1}},
	},
	"smt2": {
		desc: "2-context SMT core, default composite shared across contexts",
		sim: Sim{
			Machine:   MachineSpec{Contexts: 2},
			Predictor: PredictorSpec{Family: FamilyComposite},
		},
	},
	"smt4": {
		desc: "4-context SMT core, default composite shared across contexts",
		sim: Sim{
			Machine:   MachineSpec{Contexts: 4},
			Predictor: PredictorSpec{Family: FamilyComposite},
		},
	},
}

// Preset returns the named preset spec (not yet normalized), if it
// exists. Preset specs leave the workload unset; callers fill it in.
func Preset(name string) (Sim, bool) {
	p, ok := presets[name]
	return p.sim, ok
}

// PresetNames lists the preset names, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PresetDescription returns the one-line description of a preset.
func PresetDescription(name string) string { return presets[name].desc }
