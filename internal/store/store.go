package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// Store bundles the WAL, the result warehouse, and the flight-record
// store under one data directory:
//
//	<dir>/wal/wal-XXXXXXXX.log   lifecycle events (jobs, sweeps)
//	<dir>/warehouse.log          finished run results by spec hash
//	<dir>/flights.log            job flight records (post-mortem black boxes)
//
// Open replays the log, folds it to the pending State, and compacts
// the history down to the live records. The owner reads State once at
// startup to re-enqueue owed work, then appends lifecycle events as
// they happen. All append methods are durable on return and safe for
// concurrent use.
type Store struct {
	wal     *WAL
	wh      *Warehouse
	flights *FlightStore
	state   State
}

// Options tunes Open. Zero values select defaults.
type Options struct {
	WAL WALOptions
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: data directory must not be empty")
	}
	wal, events, err := OpenWAL(filepath.Join(dir, "wal"), opts.WAL)
	if err != nil {
		return nil, err
	}
	st := Fold(events)
	// Compact whenever history would otherwise accumulate: the folded
	// live set is the whole truth, so everything else is dead weight a
	// restart should not pay to replay again.
	if len(events) > len(st.PendingJobs)+len(st.PendingSweeps) {
		if err := wal.Compact(st.Live()); err != nil {
			wal.Close()
			return nil, err
		}
	}
	wh, err := OpenWarehouse(dir)
	if err != nil {
		wal.Close()
		return nil, err
	}
	flights, err := OpenFlightStore(dir, 0)
	if err != nil {
		wal.Close()
		wh.Close()
		return nil, err
	}
	return &Store{wal: wal, wh: wh, flights: flights, state: st}, nil
}

// State returns the fold of the log as it stood at Open: the work a
// restarted owner owes. Events appended since Open are not reflected.
func (s *Store) State() State { return s.state }

// Warehouse exposes the result warehouse.
func (s *Store) Warehouse() *Warehouse { return s.wh }

// Flights exposes the flight-record store.
func (s *Store) Flights() *FlightStore { return s.flights }

// Close closes the WAL, warehouse, and flight store.
func (s *Store) Close() error {
	err := s.wal.Close()
	if werr := s.wh.Close(); err == nil {
		err = werr
	}
	if ferr := s.flights.Close(); err == nil {
		err = ferr
	}
	return err
}

// AppendJobAccepted records an admitted job durably; until a terminal
// event follows, a restart re-enqueues it.
func (s *Store) AppendJobAccepted(id, tenant, specHash string, spec json.RawMessage, label string, timeoutMS int64) error {
	return s.wal.Append(Event{Type: EvJobAccepted, Time: time.Now().UTC(), Job: &JobEvent{
		ID: id, Tenant: tenant, SpecHash: specHash, Spec: spec, Label: label, TimeoutMS: timeoutMS,
	}})
}

// AppendJobDone records a job's successful completion.
func (s *Store) AppendJobDone(id, specHash string) error {
	return s.wal.Append(Event{Type: EvJobDone, Time: time.Now().UTC(),
		Job: &JobEvent{ID: id, SpecHash: specHash}})
}

// AppendJobFailed records a job's terminal failure.
func (s *Store) AppendJobFailed(id, specHash, errMsg string) error {
	return s.wal.Append(Event{Type: EvJobFailed, Time: time.Now().UTC(),
		Job: &JobEvent{ID: id, SpecHash: specHash, Error: errMsg}})
}

// AppendJobCanceled records a client cancellation.
func (s *Store) AppendJobCanceled(id, specHash string) error {
	return s.wal.Append(Event{Type: EvJobCanceled, Time: time.Now().UTC(),
		Job: &JobEvent{ID: id, SpecHash: specHash}})
}

// AppendSweepStarted records an accepted sweep and its unique points.
func (s *Store) AppendSweepStarted(id, tenant string, total int, points []SweepPoint) error {
	return s.wal.Append(Event{Type: EvSweepStarted, Time: time.Now().UTC(),
		Sweep: &SweepEvent{ID: id, Tenant: tenant, Total: total, Points: points}})
}

// AppendPointDone records one sweep point's completion.
func (s *Store) AppendPointDone(sweepID, hash string) error {
	return s.wal.Append(Event{Type: EvPointDone, Time: time.Now().UTC(),
		Sweep: &SweepEvent{ID: sweepID, Hash: hash}})
}

// AppendPointFailed records one sweep point's terminal failure.
func (s *Store) AppendPointFailed(sweepID, hash, errMsg string) error {
	return s.wal.Append(Event{Type: EvPointFailed, Time: time.Now().UTC(),
		Sweep: &SweepEvent{ID: sweepID, Hash: hash, Error: errMsg}})
}

// AppendSweepDone records that every point of a sweep settled.
func (s *Store) AppendSweepDone(id string) error {
	return s.wal.Append(Event{Type: EvSweepDone, Time: time.Now().UTC(),
		Sweep: &SweepEvent{ID: id}})
}
