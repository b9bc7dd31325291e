package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// Warehouse retains finished run results beyond any in-memory cache,
// keyed by canonical spec hash, backed by a CRC-framed append-only
// file. One record per hash is live (the latest); opening compacts the
// file when superseded records dominate. Safe for concurrent use.
type Warehouse struct {
	mu    sync.Mutex
	f     *os.File
	bw    *bufio.Writer
	path  string
	index map[string]RunRecord
	order []string // insertion order of live hashes, oldest first
	dead  int      // superseded records currently on disk
}

const warehouseFile = "warehouse.log"

// OpenWarehouse opens (creating if needed) the warehouse in dir and
// loads its index. A torn tail record from a crashed append is
// truncated away. When more than half the on-disk records are
// superseded duplicates, the file is rewritten compacted.
func OpenWarehouse(dir string) (*Warehouse, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating warehouse dir: %w", err)
	}
	path := filepath.Join(dir, warehouseFile)
	w := &Warehouse{path: path, index: make(map[string]RunRecord)}
	total, good, err := w.load()
	if err != nil {
		return nil, err
	}
	if _, statErr := os.Stat(path); statErr == nil {
		if err := truncateTo(path, good); err != nil {
			return nil, err
		}
	}
	if w.dead = total - len(w.index); w.dead > len(w.index) {
		if err := w.compact(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening warehouse: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	return w, nil
}

// load scans the file into the index, returning the record count and
// the offset of the end of the last intact record.
func (w *Warehouse) load() (total int, good int64, err error) {
	return readFrames(w.path, func(rec RunRecord) bool {
		if rec.SpecHash == "" {
			return false
		}
		w.insert(rec)
		return true
	})
}

// insert places rec in the index, tracking insertion order.
func (w *Warehouse) insert(rec RunRecord) {
	if _, ok := w.index[rec.SpecHash]; !ok {
		w.order = append(w.order, rec.SpecHash)
	}
	w.index[rec.SpecHash] = rec
}

// compact rewrites the file with only the live records. Crash-safe:
// the rewrite goes to a temp file that is renamed over the original.
func (w *Warehouse) compact() error {
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating warehouse compaction file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	for _, hash := range w.order {
		if _, err := writeFrame(bw, w.index[hash]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: flushing warehouse compaction: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing warehouse compaction: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("store: installing compacted warehouse: %w", err)
	}
	w.dead = 0
	return nil
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
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: warehouse is closed")
	}
	if _, existed := w.index[rec.SpecHash]; existed {
		w.dead++
	}
	if _, err := writeFrame(w.bw, rec); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: warehouse flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: warehouse fsync: %w", err)
	}
	w.insert(rec)
	return nil
}

// Get returns the live record for a spec hash.
func (w *Warehouse) Get(hash string) (RunRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec, ok := w.index[hash]
	return rec, ok
}

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
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []RunRecord
	for i := len(w.order) - 1; i >= 0; i-- {
		rec := w.index[w.order[i]]
		if f.SpecHash != "" && rec.SpecHash != f.SpecHash {
			continue
		}
		if f.Tenant != "" && rec.Tenant != f.Tenant {
			continue
		}
		if f.Workload != "" && rec.Workload != f.Workload {
			continue
		}
		if f.Predictor != "" && rec.Predictor != f.Predictor {
			continue
		}
		if f.Source != "" && !matchSource(f.Source, rec.Workload) {
			continue
		}
		if f.Contexts != nil && !matchContexts(*f.Contexts, rec.Contexts) {
			continue
		}
		out = append(out, rec)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Len returns the number of live records.
func (w *Warehouse) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.index)
}

// Close flushes and closes the backing file. Further puts fail.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var firstErr error
	if err := w.bw.Flush(); err != nil {
		firstErr = err
	}
	if err := w.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	w.f = nil
	return firstErr
}
