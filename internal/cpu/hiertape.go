package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// hierTape stands between a single-context run over a recording and
// the memory hierarchy. A replaying tape (known set) answers each fetch
// and load with how the hierarchy served it in the run the outcomes
// were recorded from, and the run touches no cache; a recording tape
// writes down each load's answer and each fetch that missed the L1I
// while the run accesses the hierarchy as usual. Its buffers outlive
// the run, so later recording runs on the pipeline reuse them.
type hierTape struct {
	known    *trace.HierarchyOutcomes
	nextLoad int // next of known.Loads to replay
	nextMiss int // next of known.FetchMisses to replay

	loads  []mem.Served
	misses []uint64
}

// replayFetch returns the level that served instruction seq's fetch.
func (t *hierTape) replayFetch(seq uint64) mem.Served {
	m := t.known.FetchMisses
	if t.nextMiss < len(m) && m[t.nextMiss]>>2 == seq {
		t.nextMiss++
		return mem.Served(m[t.nextMiss-1] & 3)
	}
	return mem.ServedL1
}

// replayLoad returns how the next load that reaches the data cache was
// served.
func (t *hierTape) replayLoad() mem.Served {
	served := t.known.Loads[t.nextLoad]
	t.nextLoad++
	return served
}

// beginHierarchy sets up how context s's run over rec, from its first
// instruction to its end, treats the memory hierarchy, and returns the
// slot's contents at run start. When the instructions alone decide the
// accesses (see hierarchyFromTrace), what a fresh hierarchy makes of
// them depends only on the recording, the hierarchy configuration and
// the forwarding window. The run therefore replays the recording's
// outcomes when they were recorded under this configuration and window
// over exactly rec's length, since their counters describe the whole
// run; it records its own when the slot is empty or holds this key's
// outcomes for a shorter prefix; otherwise it accesses the hierarchy
// and leaves the slot alone.
func (p *Pipeline) beginHierarchy(s *ctxSlice, rec *trace.Replay) *trace.HierarchyOutcomes {
	if !p.hierarchyFromTrace() {
		return nil
	}
	held, n := rec.HierarchyOutcomes(), rec.Len()
	t := &p.tape
	switch {
	case held != nil && (held.Config != p.cfg.Hierarchy || held.ForwardWindow != p.forwardWindow()):
	case held != nil && held.Len == n:
		t.known, t.nextLoad, t.nextMiss = held, 0, 0
		s.tape = t
	case held == nil || held.Len < n:
		t.known, t.loads, t.misses = nil, t.loads[:0], t.misses[:0]
		s.tape = t
	}
	return held
}

// hierarchyFromTrace reports whether the instructions alone decide what
// a single-context run asks of the memory hierarchy: a fetch per
// instruction, an access per store, and an access per load that skips
// neither to store forwarding nor to a memory-order flush.
//
// Of the value predictors, only address predictions reach the caches
// (the PAQ probe, its prefetch on a miss, and the resolver that
// validates them), so the engine must be nil or a ValueOnlyEngine.
// And which loads skip the data cache must not depend on timing. A
// load skips it when the last older store to its word is within the
// forwarding window (it forwards), or has not executed by the load's
// issue (a memory-order flush). The second needs the store within ROB
// instructions: a store at least ROB instructions older executed
// before the commit that let the load dispatch (see timingRingSize).
// So with ROB ≤ 4·STQ every flushing store is also in the window, and
// instruction distances alone decide.
func (p *Pipeline) hierarchyFromTrace() bool {
	if p.cfg.ROB > p.forwardWindow() {
		return false
	}
	if p.engine == nil {
		return true
	}
	e, ok := p.engine.(ValueOnlyEngine)
	return ok && e.ValueOnly()
}

// forwardWindow returns how many instructions back an executed store
// still forwards its data to a load: 4·STQ.
func (p *Pipeline) forwardWindow() int { return 4 * p.cfg.STQ }

// endHierarchy finishes the hierarchy outcomes, if any, of context s's
// complete run over rec. A recording tape offers them to later runs,
// replacing held, what the slot held at run start; if another run
// published in between, that publication stands. A replaying tape,
// which must have been asked for every recorded access, installs the
// recorded counters.
func (p *Pipeline) endHierarchy(s *ctxSlice, rec *trace.Replay, held *trace.HierarchyOutcomes) {
	t := s.tape
	switch {
	case t == nil:
	case t.known == nil:
		rec.PublishHierarchyOutcomes(held, &trace.HierarchyOutcomes{
			Config:        p.cfg.Hierarchy,
			ForwardWindow: p.forwardWindow(),
			Len:           rec.Len(),
			Loads:         append([]mem.Served(nil), t.loads...),
			FetchMisses:   append([]uint64(nil), t.misses...),
			Stats:         p.hier.Stats(),
		})
	default:
		if k := t.known; t.nextLoad != len(k.Loads) || t.nextMiss != len(k.FetchMisses) {
			panic(fmt.Sprintf("cpu: replayed %d of %d recorded loads and %d of %d fetch misses",
				t.nextLoad, len(k.Loads), t.nextMiss, len(k.FetchMisses)))
		}
		p.hier.SetStats(t.known.Stats)
	}
}
