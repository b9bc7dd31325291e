package cpu

import "repro/internal/core"

// Engine is the value prediction engine plugged into the core: the
// composite predictor, a single component, EVES, or nothing. The
// pipeline calls Probe when a load is fetched and Train when it
// executes, handing back the record handle from Probe so the engine can
// match training to the prediction it made.
//
// Handles are engine-owned: an engine keeps its per-load records in a
// ring indexed by the handle, sized so a record lives at least as long
// as its load can stay in flight (the pipeline trains loads in program
// order and never keeps more than a ROB's worth pending, far below
// RecRingSize). This replaces the former `rec any` plumbing, whose
// interface boxing allocated on every probed load.
type Engine interface {
	// Probe is called at fetch for every predictable load. It returns
	// a per-load record handle (replayed to Train), the delivered
	// prediction, and whether one was delivered.
	Probe(p core.Probe) (rec uint64, pred core.Prediction, used bool)

	// Train is called when the load executes. resolve reads the
	// simulated memory image as the PAQ probe would have seen it, for
	// validating address predictions.
	Train(o core.Outcome, rec uint64, resolve core.AddrResolver)

	// Instret advances epoch-based machinery (accuracy monitors, table
	// fusion) by n retired instructions.
	Instret(n uint64)
}

// ValueOnlyEngine is implemented by an Engine that can declare it never
// reaches the memory hierarchy: it never delivers an address
// prediction, and its Train never calls the resolver. With such an
// engine, or none, the caches see only the trace's own accesses, so a
// run over a recording may replay what the hierarchy made of them
// (DESIGN.md §8). EVES declares it; the composite does not, since its
// PAQ probes, their prefetches and its resolver read and change the
// caches.
type ValueOnlyEngine interface {
	ValueOnly() bool
}

// RecRingSize is the number of in-flight per-load records an engine
// must retain between Probe and its matching Train. Must be a power of
// two and exceed the pipeline's maximum training backlog (bounded by
// the ROB plus fetch-to-execute slack — a few hundred).
const RecRingSize = 4096

// CompositeEngine adapts core.Composite to the Engine interface.
type CompositeEngine struct {
	C *core.Composite

	recs []core.Lookup // per-load record ring, indexed by handle
	next uint64
}

// NewCompositeEngine wraps a composite predictor as a pipeline engine.
func NewCompositeEngine(c *core.Composite) *CompositeEngine {
	return &CompositeEngine{C: c, recs: make([]core.Lookup, RecRingSize)}
}

// Probe implements Engine.
func (e *CompositeEngine) Probe(p core.Probe) (uint64, core.Prediction, bool) {
	h := e.next
	e.next++
	lk := &e.recs[h&(RecRingSize-1)]
	*lk = e.C.Probe(p)
	pred, used := lk.Prediction()
	return h, pred, used
}

// Train implements Engine.
func (e *CompositeEngine) Train(o core.Outcome, rec uint64, resolve core.AddrResolver) {
	lk := &e.recs[rec&(RecRingSize-1)]
	e.C.Train(o, lk, core.Validate(lk, o, resolve))
}

// Instret implements Engine.
func (e *CompositeEngine) Instret(n uint64) { e.C.Instret(n) }
