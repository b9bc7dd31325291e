// Package server exposes the simulator as a concurrent job service: a
// stdlib-only net/http daemon with a bounded FIFO queue feeding a
// worker pool, an LRU result cache keyed by the canonical request hash,
// per-job cancellation, and an obs-backed metrics/health layer. The
// request/response types here are also the schema cmd/lvpsim -json
// emits, so CLI and service outputs stay in sync.
package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/spec"
	"repro/internal/stats"
)

// JobRequest describes one simulation. The declarative form sets Spec
// (or Preset) — the machine/predictor/workload/run description of
// internal/spec — while the flat fields keep the original API working.
// Both forms resolve to one spec.Sim, and the spec's canonical hash is
// the job's cache identity, so however a simulation is spelled,
// equivalent requests share a cache entry.
type JobRequest struct {
	// Spec is the full declarative simulation spec. When set it wins
	// over the flat fields below (Workload/Insts/Seed still fill
	// empty spec fields for convenience). Mutually exclusive with
	// Preset and Machine.
	Spec *spec.Sim `json:"spec,omitempty"`

	// Preset names a starting spec (see GET /v1/presets, e.g.
	// "best-9.6KB"); flat fields fill the workload and run.
	Preset string `json:"preset,omitempty"`

	// Machine applies machine-config deltas over the paper's Table III
	// baseline to the flat form or preset (e.g. {"rob":512,
	// "paq_depth":8}).
	Machine *spec.MachineSpec `json:"machine,omitempty"`

	// Workload is the workload name (see GET /v1/workloads).
	Workload string `json:"workload,omitempty"`

	// Predictor is one of none|lvp|sap|cvp|cap|composite|best|eves.
	Predictor string `json:"predictor,omitempty"`

	// Entries sizes the component tables (composite families); 0 means
	// 1024 per component.
	Entries int `json:"entries,omitempty"`

	// BudgetKB is the EVES storage budget in KB (0 = server default 32;
	// -1 = infinite).
	BudgetKB int `json:"budget_kb,omitempty"`

	// AM selects the composite accuracy monitor: ""|none|m|pc|pcinf
	// ("" = pc). Single-component families ignore it, as they always
	// have.
	AM string `json:"am,omitempty"`

	// Insts is the instruction budget (0 = server default).
	Insts uint64 `json:"insts,omitempty"`

	// Seed drives predictor randomness (0 = server default).
	Seed uint64 `json:"seed,omitempty"`

	// TimeoutMS bounds the job's simulation time; 0 means the server
	// default. The timeout is not part of the cache identity.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// rawSpec assembles the un-normalized spec.Sim the request describes.
func (r JobRequest) rawSpec() (spec.Sim, error) {
	var sim spec.Sim
	switch {
	case r.Spec != nil:
		if r.Preset != "" {
			return sim, fmt.Errorf("spec and preset are mutually exclusive")
		}
		if r.Machine != nil {
			return sim, fmt.Errorf("machine and spec are mutually exclusive (set spec.machine)")
		}
		sim = *r.Spec
	case r.Preset != "":
		p, ok := spec.Preset(r.Preset)
		if !ok {
			return sim, fmt.Errorf("unknown preset %q (see GET /v1/presets)", r.Preset)
		}
		sim = p
	default:
		sim.Predictor = spec.PredictorSpec{
			Family:     spec.Family(r.Predictor),
			EntriesPer: r.Entries,
			BudgetKB:   r.BudgetKB,
		}
		// The flat AM field only ever applied to the composite
		// families; single components and EVES ignore it.
		switch sim.Predictor.Family {
		case "", spec.FamilyComposite, spec.FamilyBest:
			sim.Predictor.AM = spec.AMMode(r.AM)
		}
	}
	if r.Machine != nil {
		sim.Machine = *r.Machine
	}
	if sim.Workload.Name == "" {
		sim.Workload.Name = r.Workload
	}
	if sim.Workload.Insts == 0 {
		sim.Workload.Insts = r.Insts
	}
	if sim.Run.Seed == 0 {
		sim.Run.Seed = r.Seed
	}
	return sim, nil
}

// ResolveSpec normalizes the request into its canonical spec under the
// server defaults and validates it. The spec's CanonicalHash is the
// job's cache key: everything that changes the result participates,
// the timeout does not, and equivalent spellings (flat fields vs
// explicit spec, any JSON key order, defaults written out vs omitted)
// produce the same key.
func (r JobRequest) ResolveSpec(d spec.Defaults) (spec.Sim, error) {
	sim, err := r.rawSpec()
	if err != nil {
		return sim, err
	}
	sim.Normalize(d)
	if err := sim.Validate(); err != nil {
		return sim, err
	}
	return sim, nil
}

// Label returns the predictor name responses echo: the requested
// spelling for flat requests ("best" stays "best"), the canonical
// family otherwise.
func (r JobRequest) Label(sim spec.Sim) string {
	if r.Spec == nil && r.Preset == "" && r.Predictor != "" {
		return r.Predictor
	}
	return string(sim.Predictor.Family)
}

// FlushCounts breaks recovery events out by cause.
type FlushCounts struct {
	Value    uint64 `json:"value"`
	Branch   uint64 `json:"branch"`
	MemOrder uint64 `json:"mem_order"`
}

// ComponentResult is one composite component's contribution.
type ComponentResult struct {
	Name      string `json:"name"`
	Used      uint64 `json:"used"`
	Correct   uint64 `json:"correct"`
	Incorrect uint64 `json:"incorrect"`
}

// ContextResult is one hardware context's slice of a multi-context
// (SMT) run: the context's own metrics against its slice of the SMT
// baseline (both runs shared the machine with the other contexts, so
// the speedup isolates the predictor's effect under contention).
type ContextResult struct {
	Context      int     `json:"context"`
	Workload     string  `json:"workload"`
	Stream       string  `json:"stream"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	BaselineIPC  float64 `json:"baseline_ipc"`
	SpeedupPct   float64 `json:"speedup_pct"`
	CoveragePct  float64 `json:"coverage_pct"`
	Accuracy     float64 `json:"accuracy"`

	Flushes FlushCounts `json:"flushes"`
}

// RunResult is the outcome of one simulation: headline metrics against
// the no-VP baseline plus the optional per-component breakdown. It is
// the payload of GET /v1/jobs/{id} and of lvpsim -json. Multi-context
// (SMT) results carry machine-wide merged metrics in the headline
// fields — Workload is the mix label ("a+b"), Instructions/Cycles and
// the flush counts are summed over contexts, IPC is the machine
// aggregate — plus the per-context breakdown in PerContext.
type RunResult struct {
	Workload     string  `json:"workload"`
	Predictor    string  `json:"predictor"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	BaselineIPC  float64 `json:"baseline_ipc"`
	SpeedupPct   float64 `json:"speedup_pct"`
	CoveragePct  float64 `json:"coverage_pct"`
	Accuracy     float64 `json:"accuracy"`

	Flushes FlushCounts `json:"flushes"`

	// Contexts is the simulated hardware context count; omitted (0) for
	// single-context runs.
	Contexts int `json:"contexts,omitempty"`

	// PerContext breaks a multi-context run out by hardware context.
	PerContext []ContextResult `json:"per_context,omitempty"`

	// Components is the per-component breakdown (composite families
	// only).
	Components []ComponentResult `json:"components,omitempty"`

	// StorageKB is the predictor's storage budget, when known.
	StorageKB float64 `json:"storage_kb,omitempty"`

	// SimInstructions counts the instructions simulated to produce
	// this result: the configured run plus the baseline unless the
	// baseline was already memoized in the shared context when the job
	// asked for it. A job that waits for another job's in-flight
	// baseline counts it too, so concurrent jobs can count one
	// baseline twice; lvpd_sim_instructions_total counts the same way.
	// Cache-hit responses replay the producing job's value;
	// JobStatus.CacheHit distinguishes them.
	SimInstructions uint64 `json:"sim_instructions,omitempty"`

	// SimMIPS is the producing job's simulation throughput in millions
	// of instructions per wall-clock second.
	SimMIPS float64 `json:"sim_mips,omitempty"`
}

// NewRunResult assembles the response payload from a configured run,
// its baseline, and (optionally) the composite whose engine produced
// the run.
func NewRunResult(run, base stats.Run, comp *core.Composite) RunResult {
	res := RunResult{
		Workload:     run.Workload,
		Predictor:    run.Config,
		Instructions: run.Instructions,
		Cycles:       run.Cycles,
		IPC:          run.IPC(),
		BaselineIPC:  base.IPC(),
		SpeedupPct:   stats.Speedup(run, base),
		CoveragePct:  run.Coverage(),
		Accuracy:     run.Accuracy(),
		Flushes: FlushCounts{
			Value:    run.VPFlushes,
			Branch:   run.BranchFlushes,
			MemOrder: run.MemOrderFlushes,
		},
	}
	if comp != nil {
		st := comp.Stats()
		for c := core.Component(0); c < core.NumComponents; c++ {
			if comp.Component(c) == nil {
				continue
			}
			res.Components = append(res.Components, ComponentResult{
				Name:      c.String(),
				Used:      st.UsedBy[c],
				Correct:   st.CorrectBy[c],
				Incorrect: st.IncorrectBy[c],
			})
		}
		res.StorageKB = comp.StorageKB()
	}
	return res
}

// NewSMTRunResult assembles the response payload of a run: merged
// headline metrics plus, for a multi-context run, one ContextResult per
// context, each speedup computed against the matching context of the
// SMT baseline. streams names each context's instruction stream. For a
// single-context run (no per-context runs) it is NewRunResult's value.
func NewSMTRunResult(run, base expt.SMTResult, streams []string, comp *core.Composite) RunResult {
	res := NewRunResult(run.Merged, base.Merged, comp)
	if len(run.Per) == 0 {
		return res
	}
	res.Contexts = len(run.Per)
	res.PerContext = make([]ContextResult, len(run.Per))
	for i, r := range run.Per {
		cr := ContextResult{
			Context:      i,
			Workload:     r.Workload,
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			IPC:          r.IPC(),
			CoveragePct:  r.Coverage(),
			Accuracy:     r.Accuracy(),
			Flushes: FlushCounts{
				Value:    r.VPFlushes,
				Branch:   r.BranchFlushes,
				MemOrder: r.MemOrderFlushes,
			},
		}
		if i < len(streams) {
			cr.Stream = streams[i]
		}
		if i < len(base.Per) {
			cr.BaselineIPC = base.Per[i].IPC()
			cr.SpeedupPct = stats.Speedup(r, base.Per[i])
		}
		res.PerContext[i] = cr
	}
	return res
}

// NewSimResult is the RunResult of sim's configured run and baseline as
// lvpd serves it and lvpsim prints it: NewSMTRunResult's payload,
// echoing label as the predictor, with the spec's storage budget when
// the engine reports none.
func NewSimResult(sim spec.Sim, label string, run, base expt.SMTResult, comp *core.Composite) RunResult {
	res := NewSMTRunResult(run, base, sim.ContextStreams(), comp)
	res.Predictor = label
	if res.StorageKB == 0 {
		res.StorageKB = spec.StorageKB(sim.Predictor)
	}
	return res
}

// CompositeFromEngine unwraps the composite behind an engine, when
// there is one (for the per-component breakdown). Only lvpbench calls
// it: expt.Context.Simulate returns the composite to every other
// caller.
func CompositeFromEngine(eng cpu.Engine) *core.Composite {
	if ce, ok := eng.(*cpu.CompositeEngine); ok {
		return ce.C
	}
	return nil
}

// ComponentProgress is one predictor component's live counters in a
// ProgressView: predictions used so far, validation outcomes, and the
// accuracy monitor's current-epoch view (mispredictions per kilo
// prediction plus whether the monitor has silenced the component).
type ComponentProgress struct {
	Name      string  `json:"name"`
	Used      uint64  `json:"used"`
	Correct   uint64  `json:"correct"`
	Incorrect uint64  `json:"incorrect"`
	MPKP      float64 `json:"mpkp"`
	Silenced  bool    `json:"silenced,omitempty"`
}

// ProgressView is a running job's live progress as reported by
// GET /v1/jobs/{id} and streamed by GET /v1/jobs/{id}/events: which
// phase the job is in (baseline|run), how far through the phase's
// instruction budget it is, the simulation rate, and the per-component
// predictor telemetry (run phase of composite-family jobs only).
type ProgressView struct {
	Phase             string  `json:"phase"`
	Instructions      uint64  `json:"instructions"`
	TotalInstructions uint64  `json:"total_instructions"`
	Pct               float64 `json:"pct"`
	Cycles            uint64  `json:"cycles"`
	SimMIPS           float64 `json:"sim_mips"`

	Components []ComponentProgress `json:"components,omitempty"`

	// PerContext is the per-context live progress of a multi-context
	// run: one row per hardware context, published by the pipeline's
	// seqlock rows on the same cadence as the machine-wide aggregate
	// above.
	PerContext []ContextProgress `json:"per_context,omitempty"`
}

// ContextProgress is one hardware context's live progress row.
type ContextProgress struct {
	Context      int     `json:"context"`
	Workload     string  `json:"workload"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	Pct          float64 `json:"pct"`
}

// NewProgressView renders one progress snapshot for a phase with the
// given instruction budget. Components with no activity are omitted.
func NewProgressView(phase string, total uint64, s cpu.ProgressSnapshot) ProgressView {
	pv := ProgressView{
		Phase:             phase,
		Instructions:      s.Instructions,
		TotalInstructions: total,
		Cycles:            s.Cycles,
		SimMIPS:           s.SimMIPS(),
	}
	if total > 0 {
		pv.Pct = 100 * float64(s.Instructions) / float64(total)
	}
	for c := core.Component(0); c < core.NumComponents; c++ {
		if s.Used[c] == 0 && s.Correct[c] == 0 && s.Incorrect[c] == 0 &&
			s.MPKP[c] == 0 && !s.Silenced.Has(c) {
			continue
		}
		pv.Components = append(pv.Components, ComponentProgress{
			Name:      c.String(),
			Used:      s.Used[c],
			Correct:   s.Correct[c],
			Incorrect: s.Incorrect[c],
			MPKP:      s.MPKP[c],
			Silenced:  s.Silenced.Has(c),
		})
	}
	return pv
}

// Job states reported by JobStatus.State. StateRejected appears only
// in sweep responses, for points the full queue shed.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
	StateRejected = "rejected"
)

// JobStatus is the response of POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`

	// SpecHash is the canonical hash of the job's resolved spec — the
	// result-cache key.
	SpecHash string `json:"spec_hash,omitempty"`

	// Tenant names the tenant the job is attributed to ("default" in
	// single-tenant deployments).
	Tenant string `json:"tenant,omitempty"`

	// Error explains failed/canceled states.
	Error string `json:"error,omitempty"`

	// Result is set once State is done.
	Result *RunResult `json:"result,omitempty"`

	// CacheHit marks a job answered from the result cache without
	// simulating.
	CacheHit bool `json:"cache_hit,omitempty"`

	// TraceID names the trace the job's spans were recorded under (the
	// submitter's trace when the submit request carried a traceparent
	// header, a fresh one otherwise). Set once the job starts running;
	// the trace is exportable at GET /debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`

	// Progress is the live mid-run view (running jobs only, once the
	// first snapshot has been published).
	Progress *ProgressView `json:"progress,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// JobSummary is one row of GET /v1/jobs: enough to inspect a backlog
// (state + spec hash) without shipping result payloads.
type JobSummary struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	SpecHash  string     `json:"spec_hash,omitempty"`
	Tenant    string     `json:"tenant,omitempty"`
	Workload  string     `json:"workload,omitempty"`
	Predictor string     `json:"predictor,omitempty"`
	CacheHit  bool       `json:"cache_hit,omitempty"`
	Created   time.Time  `json:"created"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// JobList is the response of GET /v1/jobs: retained jobs most recent
// first, paginated by offset/limit. Total counts every retained job,
// so offset >= total means the listing is exhausted.
type JobList struct {
	Jobs   []JobSummary `json:"jobs"`
	Total  int          `json:"total"`
	Offset int          `json:"offset"`
	Limit  int          `json:"limit"`
}

// Health is the GET /healthz payload. The cluster coordinator reads it
// when probing workers: QueueDepth feeds load-aware scheduling and
// SimMIPS is re-exported as the per-worker throughput metric.
type Health struct {
	Status       string  `json:"status"`
	QueueDepth   int     `json:"queue_depth"`
	JobsInflight int64   `json:"jobs_inflight"`
	CacheEntries int     `json:"cache_entries"`
	SimMIPS      float64 `json:"sim_mips,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}
