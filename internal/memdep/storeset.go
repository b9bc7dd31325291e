// Package memdep implements a store-set memory dependence predictor in
// the style of the Alpha 21264 / Chrysos & Emer, as used by the paper's
// baseline core (Table III). Loads that have previously conflicted with
// a store are forced to wait for that store instead of speculating past
// it; ordering violations train the predictor by merging the load and
// store into one store set.
package memdep

// Config sizes the predictor tables.
type Config struct {
	SSITEntries int // store-set ID table entries (PC-indexed)
}

// DefaultConfig returns a 4K-entry SSIT, in line with the 21264's
// store-wait table scale.
func DefaultConfig() Config { return Config{SSITEntries: 4096} }

// Predictor is the store-set dependence predictor. It tracks, per
// static PC, membership in a "store set"; a load whose PC shares a set
// with an in-flight store must wait for that store.
type Predictor struct {
	ssit   []uint32 // 0 = no set; otherwise set ID
	mask   uint64
	nextID uint32
	lfst   []lfstEntry // last fetched store per set, indexed by set ID
	stats  Stats
}

type lfstEntry struct {
	seq   uint64 // instruction sequence number of the store
	valid bool
}

// Stats counts predictor activity.
type Stats struct {
	Violations  uint64 // ordering violations observed (trainings)
	Dependences uint64 // loads forced to wait on a predicted store
}

// New builds a predictor from cfg.
func New(cfg Config) *Predictor {
	n := cfg.SSITEntries
	if n <= 0 || n&(n-1) != 0 {
		panic("memdep: SSIT entries must be a positive power of two")
	}
	// Violation creates a set ID only when both SSIT slots are zero
	// and sets at least one of them, and no slot returns to zero before
	// Reset, so IDs run from 1 to at most n.
	return &Predictor{
		ssit: make([]uint32, n),
		mask: uint64(n - 1),
		lfst: make([]lfstEntry, n+1),
	}
}

func (p *Predictor) slot(pc uint64) *uint32 {
	return &p.ssit[(pc>>2)&p.mask]
}

// StoreFetched records that the store at storePC with sequence number
// seq has entered the window. If the store belongs to a set, it becomes
// that set's last fetched store.
func (p *Predictor) StoreFetched(storePC, seq uint64) {
	id := *p.slot(storePC)
	if id == 0 {
		return
	}
	p.lfst[id] = lfstEntry{seq: seq, valid: true}
}

// StoreExecuted clears the set's last-fetched-store entry once the
// store at seq has executed (younger loads no longer need to wait).
func (p *Predictor) StoreExecuted(storePC, seq uint64) {
	id := *p.slot(storePC)
	if id == 0 {
		return
	}
	if e := &p.lfst[id]; e.valid && e.seq == seq {
		*e = lfstEntry{}
	}
}

// LoadDependence returns the sequence number of the store the load at
// loadPC must wait for, if any.
func (p *Predictor) LoadDependence(loadPC uint64) (storeSeq uint64, ok bool) {
	id := *p.slot(loadPC)
	if id == 0 {
		return 0, false
	}
	e := p.lfst[id]
	if !e.valid {
		return 0, false
	}
	p.stats.Dependences++
	return e.seq, true
}

// Violation trains the predictor after a load issued before an older
// conflicting store: the load and store PCs are merged into one store
// set (the lower existing ID wins, per the store-set merge rule).
func (p *Predictor) Violation(loadPC, storePC uint64) {
	p.stats.Violations++
	ls, ss := p.slot(loadPC), p.slot(storePC)
	switch {
	case *ls == 0 && *ss == 0:
		p.nextID++
		*ls = p.nextID
		*ss = p.nextID
	case *ls == 0:
		*ls = *ss
	case *ss == 0:
		*ss = *ls
	case *ls < *ss:
		*ss = *ls
	default:
		*ls = *ss
	}
}

// StatsSnapshot returns the counters.
func (p *Predictor) StatsSnapshot() Stats { return p.stats }

// Reset clears all predictor state.
func (p *Predictor) Reset() {
	clear(p.ssit)
	clear(p.lfst[:p.nextID+1]) // entries past nextID were never written
	p.nextID = 0
	p.stats = Stats{}
}
