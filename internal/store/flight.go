package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightEvent is one timestamped line in a job's black box: lifecycle
// transitions, phase changes, stream drops, alert dumps.
type FlightEvent struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// FlightComponent is one predictor component's telemetry at a snapshot.
type FlightComponent struct {
	Name      string  `json:"name"`
	Used      uint64  `json:"used"`
	Correct   uint64  `json:"correct"`
	Incorrect uint64  `json:"incorrect"`
	MPKP      float64 `json:"mpkp"`
	Silenced  bool    `json:"silenced,omitempty"`
}

// FlightSnapshot is one progress sample from the pipeline's seqlock
// probe, taken by the observability collector on its scrape tick.
type FlightSnapshot struct {
	Time         time.Time         `json:"time"`
	Phase        string            `json:"phase,omitempty"`
	Instructions uint64            `json:"instructions"`
	Cycles       uint64            `json:"cycles"`
	SimMIPS      float64           `json:"sim_mips"`
	Components   []FlightComponent `json:"components,omitempty"`
}

// FlightRecord is a job's complete black box: identity and attribution,
// the trigger that caused the dump, the last N lifecycle events, and
// the last N progress snapshots. Dumped into the durable flight store
// when a job fails, is canceled, or is in flight when an SLO alert
// fires — the inputs to a post-mortem.
type FlightRecord struct {
	JobID     string    `json:"job_id"`
	SpecHash  string    `json:"spec_hash,omitempty"`
	Tenant    string    `json:"tenant,omitempty"`
	Workload  string    `json:"workload,omitempty"`
	Predictor string    `json:"predictor,omitempty"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	Trigger   string    `json:"trigger,omitempty"` // "failed", "canceled", "alert:<rule>", "" = live view
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`

	Events    []FlightEvent    `json:"events,omitempty"`
	Snapshots []FlightSnapshot `json:"snapshots,omitempty"`
}

// FlightStore retains flight records keyed by job ID in a CRC-framed
// append-only file (the warehouse's format), bounded to the most
// recent maxLive records. Re-putting a job ID supersedes the earlier
// record; opening truncates a torn tail and compacts when dead records
// dominate. Safe for concurrent use.
type FlightStore struct {
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	path    string
	index   map[string]FlightRecord
	order   []string // insertion order of live job IDs, oldest first
	dead    int
	maxLive int
}

const (
	flightFile      = "flights.log"
	defaultMaxLive  = 1024
	maxFlightEvents = 256 // defensive cap applied on Put
)

// OpenFlightStore opens (creating if needed) the flight store in dir.
// maxLive <= 0 selects the default cap.
func OpenFlightStore(dir string, maxLive int) (*FlightStore, error) {
	if maxLive <= 0 {
		maxLive = defaultMaxLive
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating flight dir: %w", err)
	}
	path := filepath.Join(dir, flightFile)
	fs := &FlightStore{path: path, index: make(map[string]FlightRecord), maxLive: maxLive}
	total, good, err := fs.load()
	if err != nil {
		return nil, err
	}
	if _, statErr := os.Stat(path); statErr == nil {
		if err := truncateTo(path, good); err != nil {
			return nil, err
		}
	}
	fs.evictLocked()
	if fs.dead = total - len(fs.index); fs.dead > len(fs.index) {
		if err := fs.compact(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening flight store: %w", err)
	}
	fs.f = f
	fs.bw = bufio.NewWriterSize(f, 64<<10)
	return fs, nil
}

func (fs *FlightStore) load() (total int, good int64, err error) {
	return readFrames(fs.path, func(rec FlightRecord) bool {
		if rec.JobID == "" {
			return false
		}
		fs.insert(rec)
		return true
	})
}

func (fs *FlightStore) insert(rec FlightRecord) {
	if _, ok := fs.index[rec.JobID]; !ok {
		fs.order = append(fs.order, rec.JobID)
	}
	fs.index[rec.JobID] = rec
}

// evictLocked drops the oldest live records past the cap.
func (fs *FlightStore) evictLocked() {
	for len(fs.order) > fs.maxLive {
		delete(fs.index, fs.order[0])
		fs.order = fs.order[1:]
		fs.dead++
	}
}

func (fs *FlightStore) compact() error {
	tmp := fs.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating flight compaction file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	for _, id := range fs.order {
		if _, err := writeFrame(bw, fs.index[id]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: flushing flight compaction: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing flight compaction: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, fs.path); err != nil {
		return fmt.Errorf("store: installing compacted flight store: %w", err)
	}
	fs.dead = 0
	return nil
}

// Put stores rec as the live flight record for its job ID, durably
// before returning. Oversized event/snapshot rings are clipped to the
// most recent entries.
func (fs *FlightStore) Put(rec FlightRecord) error {
	if rec.JobID == "" {
		return fmt.Errorf("store: flight record needs a job id")
	}
	if len(rec.Events) > maxFlightEvents {
		rec.Events = rec.Events[len(rec.Events)-maxFlightEvents:]
	}
	if len(rec.Snapshots) > maxFlightEvents {
		rec.Snapshots = rec.Snapshots[len(rec.Snapshots)-maxFlightEvents:]
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return fmt.Errorf("store: flight store is closed")
	}
	if _, existed := fs.index[rec.JobID]; existed {
		fs.dead++
	}
	if _, err := writeFrame(fs.bw, rec); err != nil {
		return err
	}
	if err := fs.bw.Flush(); err != nil {
		return fmt.Errorf("store: flight flush: %w", err)
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("store: flight fsync: %w", err)
	}
	fs.insert(rec)
	fs.evictLocked()
	return nil
}

// Get returns the live flight record for a job ID.
func (fs *FlightStore) Get(jobID string) (FlightRecord, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec, ok := fs.index[jobID]
	return rec, ok
}

// Len returns the number of live flight records.
func (fs *FlightStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.index)
}

// Close flushes and closes the backing file. Further puts fail.
func (fs *FlightStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	var firstErr error
	if err := fs.bw.Flush(); err != nil {
		firstErr = err
	}
	if err := fs.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := fs.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	fs.f = nil
	return firstErr
}
