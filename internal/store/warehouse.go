package store

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// RunRecord is one finished simulation retained by the warehouse: the
// canonical spec hash it is interchangeable under, attribution and
// trace linkage, and the result payload. The payload is kept as raw
// JSON so the store does not depend on the server's response schema —
// callers that need fields (diffing, filtering beyond the indexed
// columns) decode it themselves.
type RunRecord struct {
	SpecHash  string          `json:"spec_hash"`
	Tenant    string          `json:"tenant,omitempty"`
	Workload  string          `json:"workload,omitempty"`
	Predictor string          `json:"predictor,omitempty"`
	TraceID   string          `json:"trace_id,omitempty"`
	Time      time.Time       `json:"time"`
	Result    json.RawMessage `json:"result"`

	// Contexts is the simulated hardware context count; 0 on
	// single-context records (including every record written before the
	// column existed, which decode with the same meaning).
	Contexts int `json:"contexts,omitempty"`
}

// Warehouse retains finished run results beyond any in-memory cache:
// a keyed file of RunRecords in warehouse.log, keyed by canonical spec
// hash. One record per hash is live (the latest); opening compacts the
// file when superseded records dominate. Safe for concurrent use.
type Warehouse struct {
	file *keyedFile[RunRecord]
}

const warehouseFile = "warehouse.log"

// OpenWarehouse opens (creating if needed) the warehouse in dir and
// loads its index. A torn tail record from a crashed append is
// truncated away. When more than half the on-disk records are
// superseded duplicates, the file is rewritten compacted.
func OpenWarehouse(dir string) (*Warehouse, error) {
	file, err := openKeyedFile(dir, warehouseFile,
		func(rec RunRecord) string { return rec.SpecHash }, 0)
	if err != nil {
		return nil, err
	}
	return &Warehouse{file: file}, nil
}

// Put stores rec as the live result for its spec hash, durably
// (flushed and fsynced) before returning. Re-putting a hash supersedes
// the previous record.
func (w *Warehouse) Put(rec RunRecord) error {
	if rec.SpecHash == "" {
		return fmt.Errorf("store: warehouse record needs a spec hash")
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	return w.file.put(rec)
}

// Get returns the live record for a spec hash.
func (w *Warehouse) Get(hash string) (RunRecord, bool) { return w.file.get(hash) }

// Filter selects warehouse records; zero fields match everything.
type Filter struct {
	SpecHash  string
	Tenant    string
	Workload  string
	Predictor string

	// Source selects by workload provenance: "external" matches records
	// whose workload is an uploaded trace (an "ext:" content address,
	// possibly salted), "synthetic" matches everything else. Empty
	// matches both.
	Source string

	// Contexts, when non-nil, selects by hardware context count. Values
	// <= 1 select single-context records — including records written
	// before the contexts column existed, which carry 0.
	Contexts *int

	Limit int // 0 = no limit
}

// matchSource reports whether a record's workload provenance satisfies
// the filter. Salted stream names ("ext:<hash>#2") count as external:
// the salt varies the replay offset, not where the instructions came
// from.
func matchSource(want, workload string) bool {
	external := strings.HasPrefix(workload, "ext:")
	switch want {
	case "external":
		return external
	case "synthetic":
		return !external
	default:
		return false
	}
}

// matchContexts reports whether a record's context count satisfies the
// filter, treating 0 and 1 as the same single-context class on both
// sides.
func matchContexts(want, got int) bool {
	if want <= 1 {
		return got <= 1
	}
	return got == want
}

// List returns matching records, most recently inserted first.
func (w *Warehouse) List(f Filter) []RunRecord {
	var out []RunRecord
	w.file.newestFirst(func(rec RunRecord) bool {
		if f.SpecHash != "" && rec.SpecHash != f.SpecHash {
			return true
		}
		if f.Tenant != "" && rec.Tenant != f.Tenant {
			return true
		}
		if f.Workload != "" && rec.Workload != f.Workload {
			return true
		}
		if f.Predictor != "" && rec.Predictor != f.Predictor {
			return true
		}
		if f.Source != "" && !matchSource(f.Source, rec.Workload) {
			return true
		}
		if f.Contexts != nil && !matchContexts(*f.Contexts, rec.Contexts) {
			return true
		}
		out = append(out, rec)
		return f.Limit <= 0 || len(out) < f.Limit
	})
	return out
}

// Len returns the number of live records.
func (w *Warehouse) Len() int { return w.file.len() }

// Close flushes and closes the backing file. Further puts fail.
func (w *Warehouse) Close() error { return w.file.close() }
