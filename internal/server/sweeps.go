package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	otrace "repro/internal/obs/trace"
	"repro/internal/spec"
)

// SweepAxes lists the values each swept dimension takes. Empty axes
// keep the template's value; the expansion is the cartesian product of
// the non-empty axes, applied to the template spec before
// normalization (so e.g. a swept "best" family still expands to its
// composite canonical form).
type SweepAxes struct {
	// Workloads overrides the workload name.
	Workloads []string `json:"workloads,omitempty"`

	// Predictors overrides the predictor family.
	Predictors []string `json:"predictors,omitempty"`

	// EntriesPer overrides the per-component table sizing (it replaces
	// any explicit per-component entries in the template).
	EntriesPer []int `json:"entries,omitempty"`

	// AMs overrides the accuracy monitor mode.
	AMs []string `json:"ams,omitempty"`

	// BudgetsKB overrides the EVES storage budget.
	BudgetsKB []int `json:"budgets_kb,omitempty"`

	// Seeds overrides the run seed.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Machines overrides the whole machine spec per point.
	Machines []spec.MachineSpec `json:"machines,omitempty"`

	// Contexts overrides the machine's hardware context count (applied
	// after any Machines value, so the two axes compose). A template
	// without per-context workload names runs its workload on every
	// context.
	Contexts []int `json:"contexts,omitempty"`
}

// SweepRequest expands a job template across axis lists into one
// cached job per cartesian point.
type SweepRequest struct {
	Template JobRequest `json:"template"`
	Axes     SweepAxes  `json:"axes"`
}

// SweepResponse reports the expanded jobs in expansion order (last
// axis fastest). Each entry is a regular job status: done for cache
// hits, queued for admitted work, or rejected for points the full
// queue shed — resubmit those points after Retry-After.
type SweepResponse struct {
	Count    int         `json:"count"`
	Cached   int         `json:"cached"`
	Queued   int         `json:"queued"`
	Rejected int         `json:"rejected"`
	Jobs     []JobStatus `json:"jobs"`
}

// sweepPoint is one expanded configuration plus the predictor label
// its responses echo ("" = derive from the normalized family).
type sweepPoint struct {
	sim   spec.Sim
	label string
}

// Point is one validated sweep point: the canonical spec, the label
// its responses echo, and the spec hash — the idempotency key cluster
// dispatch retries and dedups on.
type Point struct {
	Sim   spec.Sim
	Label string
	Hash  string
}

// Expand returns the sweep's validated cartesian expansion under
// defaults d, capped at max points (0 = the package default). Every
// point's Sim is canonical and its Hash is the result-cache key, so
// callers — the local sweep handler and the cluster coordinator alike
// — can dedup and dispatch points by hash. A single invalid point
// fails the whole expansion, so a bad axis value can never leave a
// half-submitted sweep behind.
func (r SweepRequest) Expand(d spec.Defaults, max int) ([]Point, error) {
	if max <= 0 {
		max = defaultMaxSweepPoints
	}
	raw, err := r.expand(max)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(raw))
	for i, p := range raw {
		sim, hash, err := p.sim.Canonical(d)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		label := p.label
		if label == "" {
			label = r.Template.Label(sim)
		}
		points[i] = Point{Sim: sim, Label: label, Hash: hash}
	}
	return points, nil
}

// expand returns the cartesian expansion of the template across the
// axes as un-normalized specs.
func (r SweepRequest) expand(max int) ([]sweepPoint, error) {
	base, err := r.Template.rawSpec()
	if err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	points := []sweepPoint{{sim: base}}
	mul := func(n int, apply func(p *sweepPoint, i int)) {
		if n == 0 {
			return
		}
		next := make([]sweepPoint, 0, len(points)*n)
		for _, p := range points {
			for i := 0; i < n; i++ {
				q := p
				apply(&q, i)
				next = append(next, q)
			}
		}
		points = next
	}
	mul(len(r.Axes.Workloads), func(p *sweepPoint, i int) {
		p.sim.Workload.Name = r.Axes.Workloads[i]
	})
	mul(len(r.Axes.Predictors), func(p *sweepPoint, i int) {
		p.sim.Predictor.Family = spec.Family(r.Axes.Predictors[i])
		p.label = r.Axes.Predictors[i]
	})
	mul(len(r.Axes.EntriesPer), func(p *sweepPoint, i int) {
		p.sim.Predictor.EntriesPer = r.Axes.EntriesPer[i]
		p.sim.Predictor.Entries = [core.NumComponents]int{}
	})
	mul(len(r.Axes.AMs), func(p *sweepPoint, i int) {
		p.sim.Predictor.AM = spec.AMMode(r.Axes.AMs[i])
	})
	mul(len(r.Axes.BudgetsKB), func(p *sweepPoint, i int) {
		p.sim.Predictor.BudgetKB = r.Axes.BudgetsKB[i]
	})
	mul(len(r.Axes.Seeds), func(p *sweepPoint, i int) {
		p.sim.Run.Seed = r.Axes.Seeds[i]
	})
	mul(len(r.Axes.Machines), func(p *sweepPoint, i int) {
		p.sim.Machine = r.Axes.Machines[i]
	})
	mul(len(r.Axes.Contexts), func(p *sweepPoint, i int) {
		p.sim.Machine.Contexts = r.Axes.Contexts[i]
	})
	if len(points) > max {
		return nil, fmt.Errorf("sweep expands to %d jobs, max %d", len(points), max)
	}
	return points, nil
}

// handleSweep implements POST /v1/sweeps: expand the template across
// the axes, validate every point, then admit each point through the
// same cache/queue path as POST /v1/jobs. The response is 200 when
// every point was answered from cache, 202 when any point was queued,
// and 429 (+ Retry-After) when backpressure shed any point.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.accepting.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	tn := s.RequestTenant(r.Context())
	maxPoints := s.cfg.MaxSweepPoints
	if tn.MaxSweepPoints > 0 && tn.MaxSweepPoints < maxPoints {
		maxPoints = tn.MaxSweepPoints
	}
	points, err := req.Expand(s.specDefaults(), maxPoints)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	resp := SweepResponse{Count: len(points), Jobs: make([]JobStatus, len(points))}
	code := http.StatusOK
	// Shed points report the same EWMA-drain-derived Retry-After a
	// single-job 429 would: the largest hint among the shed points (the
	// moment the whole backlog ahead of the sweep has drained).
	retryAfter := 0
	for i, p := range points {
		j, c, ra := s.admit(tn, p.Sim, p.Label, req.Template.TimeoutMS, otrace.ContextSpanContext(r.Context()))
		switch c {
		case http.StatusOK:
			resp.Cached++
			resp.Jobs[i] = j.status()
		case http.StatusAccepted:
			resp.Queued++
			if code == http.StatusOK {
				code = http.StatusAccepted
			}
			resp.Jobs[i] = j.status()
		default: // queue full, over budget, or shutting down: the point was shed
			resp.Rejected++
			code = http.StatusTooManyRequests
			if ra == 0 {
				ra = s.retryAfterSeconds(tn)
			}
			if ra > retryAfter {
				retryAfter = ra
			}
			resp.Jobs[i] = JobStatus{
				State:    StateRejected,
				SpecHash: p.Hash,
				Tenant:   tn.Name,
				Error:    "job queue full; resubmit this point later",
			}
		}
	}
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, resp)
}

// handlePresets implements GET /v1/presets: the named starting specs
// of internal/spec, usable as JobRequest.Preset.
func (s *Server) handlePresets(w http.ResponseWriter, _ *http.Request) {
	type presetInfo struct {
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Spec        spec.Sim `json:"spec"`
	}
	out := make([]presetInfo, 0, len(spec.PresetNames()))
	for _, n := range spec.PresetNames() {
		sim, _ := spec.Preset(n)
		out = append(out, presetInfo{Name: n, Description: spec.PresetDescription(n), Spec: sim})
	}
	writeJSON(w, http.StatusOK, map[string]any{"presets": out})
}
