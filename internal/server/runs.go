package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/store"
)

// RunView is one warehouse record rendered by GET /v1/runs: the
// retained result plus its attribution and trace linkage. Unlike the
// job listing (bounded, forgets old jobs), the warehouse retains every
// finished spec hash for the life of the data directory.
type RunView struct {
	SpecHash  string     `json:"spec_hash"`
	Tenant    string     `json:"tenant,omitempty"`
	Workload  string     `json:"workload,omitempty"`
	Predictor string     `json:"predictor,omitempty"`
	Contexts  int        `json:"contexts,omitempty"`
	TraceID   string     `json:"trace_id,omitempty"`
	Time      string     `json:"time"`
	Result    *RunResult `json:"result,omitempty"`
}

// RunList is the response of GET /v1/runs.
type RunList struct {
	Runs  []RunView `json:"runs"`
	Total int       `json:"total"`
}

// RunDiff is the response of GET /v1/runs/diff: the two results and
// the headline metric deltas (B minus A).
type RunDiff struct {
	A     RunView   `json:"a"`
	B     RunView   `json:"b"`
	Delta DiffDelta `json:"delta"`
}

// DiffDelta holds B-minus-A deltas of the comparable result metrics.
// When the two runs simulate different context counts (an SMT run
// against its single-context composite, the main use of the contexts
// dimension) the headline deltas compare merged machine-wide metrics;
// PerContext appears only when both sides break out the same contexts.
type DiffDelta struct {
	SpeedupPct  float64 `json:"speedup_pct"`
	IPC         float64 `json:"ipc"`
	CoveragePct float64 `json:"coverage_pct"`
	Accuracy    float64 `json:"accuracy"`
	Cycles      int64   `json:"cycles"`

	// Contexts flags a comparison across context counts: 0 when both
	// runs simulate the same number of contexts, B-minus-A otherwise.
	// Single-context results count as 1 whether they predate the
	// contexts column (0) or spell it out.
	Contexts int `json:"contexts,omitempty"`

	// PerContext is the per-context delta breakdown, present when both
	// runs carry per-context results for the same context count.
	PerContext []ContextDelta `json:"per_context,omitempty"`
}

// ContextDelta is one hardware context's B-minus-A metric deltas.
type ContextDelta struct {
	Context     int     `json:"context"`
	SpeedupPct  float64 `json:"speedup_pct"`
	IPC         float64 `json:"ipc"`
	CoveragePct float64 `json:"coverage_pct"`
	Accuracy    float64 `json:"accuracy"`
}

// numContexts folds a result's context count into the filter's class
// convention: 0 and 1 are both the single-context class.
func numContexts(r *RunResult) int {
	if r.Contexts > 1 {
		return r.Contexts
	}
	return 1
}

// warehouse returns the result warehouse, or nil with a rendered error
// when the daemon runs without a data directory.
func (s *Server) warehouse(w http.ResponseWriter) *store.Warehouse {
	if s.st == nil {
		WriteError(w, http.StatusNotFound, "no result warehouse: daemon started without -data-dir")
		return nil
	}
	return s.st.Warehouse()
}

func newRunView(rec store.RunRecord) RunView {
	v := RunView{
		SpecHash:  rec.SpecHash,
		Tenant:    rec.Tenant,
		Workload:  rec.Workload,
		Predictor: rec.Predictor,
		Contexts:  rec.Contexts,
		TraceID:   rec.TraceID,
		Time:      rec.Time.Format(time.RFC3339),
	}
	var res RunResult
	if err := json.Unmarshal(rec.Result, &res); err == nil {
		v.Result = &res
	}
	return v
}

// handleListRuns implements GET /v1/runs: the warehouse listing, most
// recent first, filterable by ?spec_hash=, ?tenant=, ?workload=,
// ?predictor=, ?contexts= (1 also matches records from before the
// contexts column existed), ?source= ("external" for uploaded ext:
// traces, "synthetic" for generated workloads), and bounded by ?limit=
// (default 50, max 500).
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	wh := s.warehouse(w)
	if wh == nil {
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 500 {
			WriteError(w, http.StatusBadRequest, "limit must be an integer in [1, 500]")
			return
		}
		limit = n
	}
	q := r.URL.Query()
	var contexts *int
	if v := q.Get("contexts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "contexts must be a non-negative integer")
			return
		}
		contexts = &n
	}
	source := q.Get("source")
	if source != "" && source != "external" && source != "synthetic" {
		WriteError(w, http.StatusBadRequest, `source must be "external" or "synthetic"`)
		return
	}
	recs := wh.List(store.Filter{
		SpecHash:  q.Get("spec_hash"),
		Tenant:    q.Get("tenant"),
		Workload:  q.Get("workload"),
		Predictor: q.Get("predictor"),
		Source:    source,
		Contexts:  contexts,
		Limit:     limit,
	})
	list := RunList{Runs: make([]RunView, 0, len(recs)), Total: wh.Len()}
	for _, rec := range recs {
		list.Runs = append(list.Runs, newRunView(rec))
	}
	WriteJSON(w, http.StatusOK, list)
}

// handleGetRun implements GET /v1/runs/{hash}: one retained result by
// canonical spec hash.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	wh := s.warehouse(w)
	if wh == nil {
		return
	}
	rec, ok := wh.Get(r.PathValue("hash"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no retained run for that spec hash")
		return
	}
	WriteJSON(w, http.StatusOK, newRunView(rec))
}

// handleDiffRuns implements GET /v1/runs/diff?a=HASH&b=HASH: fetch two
// retained results and report the headline metric deltas (b minus a) —
// the quickest way to compare two configurations that already ran.
func (s *Server) handleDiffRuns(w http.ResponseWriter, r *http.Request) {
	wh := s.warehouse(w)
	if wh == nil {
		return
	}
	aHash, bHash := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if aHash == "" || bHash == "" {
		WriteError(w, http.StatusBadRequest, "diff needs ?a= and ?b= spec hashes")
		return
	}
	aRec, ok := wh.Get(aHash)
	if !ok {
		WriteError(w, http.StatusNotFound, "no retained run for spec hash a="+aHash)
		return
	}
	bRec, ok := wh.Get(bHash)
	if !ok {
		WriteError(w, http.StatusNotFound, "no retained run for spec hash b="+bHash)
		return
	}
	diff := RunDiff{A: newRunView(aRec), B: newRunView(bRec)}
	if diff.A.Result == nil || diff.B.Result == nil {
		WriteError(w, http.StatusInternalServerError, "retained result payload is unreadable")
		return
	}
	ra, rb := diff.A.Result, diff.B.Result
	diff.Delta = DiffDelta{
		SpeedupPct:  rb.SpeedupPct - ra.SpeedupPct,
		IPC:         rb.IPC - ra.IPC,
		CoveragePct: rb.CoveragePct - ra.CoveragePct,
		Accuracy:    rb.Accuracy - ra.Accuracy,
		Cycles:      int64(rb.Cycles) - int64(ra.Cycles),
		Contexts:    numContexts(rb) - numContexts(ra),
	}
	if n := len(ra.PerContext); n > 0 && n == len(rb.PerContext) {
		diff.Delta.PerContext = make([]ContextDelta, n)
		for i := range diff.Delta.PerContext {
			ca, cb := ra.PerContext[i], rb.PerContext[i]
			diff.Delta.PerContext[i] = ContextDelta{
				Context:     ca.Context,
				SpeedupPct:  cb.SpeedupPct - ca.SpeedupPct,
				IPC:         cb.IPC - ca.IPC,
				CoveragePct: cb.CoveragePct - ca.CoveragePct,
				Accuracy:    cb.Accuracy - ca.Accuracy,
			}
		}
	}
	WriteJSON(w, http.StatusOK, diff)
}
