package store

import (
	"fmt"
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

// FlightStore retains flight records in a keyed file (flights.log,
// the warehouse's format) keyed by job ID, bounded to the most recent
// maxLive records. Re-putting a job ID supersedes the earlier record;
// opening truncates a torn tail and compacts when dead records
// dominate. Safe for concurrent use.
type FlightStore struct {
	file *keyedFile[FlightRecord]
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
	file, err := openKeyedFile(dir, flightFile,
		func(rec FlightRecord) string { return rec.JobID }, maxLive)
	if err != nil {
		return nil, err
	}
	return &FlightStore{file: file}, nil
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
	return fs.file.put(rec)
}

// Get returns the live flight record for a job ID.
func (fs *FlightStore) Get(jobID string) (FlightRecord, bool) { return fs.file.get(jobID) }

// Len returns the number of live flight records.
func (fs *FlightStore) Len() int { return fs.file.len() }

// Close flushes and closes the backing file. Further puts fail.
func (fs *FlightStore) Close() error { return fs.file.close() }
