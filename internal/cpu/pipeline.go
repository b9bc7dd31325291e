package cpu

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memdep"
	"repro/internal/stats"
	"repro/internal/trace"
)

// timingRingSize returns how far back per-instruction timing records
// are kept: the next power of two past twice the largest window
// resource (ROB, IQ). The ROB/IQ backpressure probes look back exactly
// ROB and IQ slots; the memory-dependence probe (ringAt(depSeq)) can
// ask about arbitrarily old stores, but a record with seq <= cur-ROB
// can never satisfy its `execDone > rdy` test — in-order commit makes
// commitC monotone in seq and execDone <= commitC, so such a record's
// execDone <= commitC(cur-ROB) <= windowReady <= rdy — making a ring
// just past the ROB indistinguishable from an unbounded history. Twice
// the window keeps the ring small enough to stay cache-resident (the
// former fixed 8192-slot ring streamed 320KB through the cache every
// 8K instructions).
func timingRingSize(cfg Config) int {
	n := cfg.ROB
	if cfg.IQ > n {
		n = cfg.IQ
	}
	size := 256
	for size < 2*n {
		size <<= 1
	}
	return size
}

// slotTiming is one per-instruction timing record. A record is live only
// when both seq and run match the query: tagging each record with the
// run generation lets Reset retire the whole 256KB ring by bumping a
// counter instead of clearing it (a stale record and an absent one are
// indistinguishable to every ringAt consumer).
type slotTiming struct {
	seq      uint64
	run      uint64
	issueC   uint64
	execDone uint64
	commitC  uint64
}

type loadStoreTiming struct {
	seq     uint64
	commitC uint64
}

// storeRecord remembers the most recent store to an 8-byte word: who it
// was, when it executed, and the word's prior contents — enough to model
// a PAQ probe reading stale data ahead of an in-flight conflicting
// store (the hazard DLVP's value check exists for).
type storeRecord struct {
	seq      uint64
	pc       uint64
	execDone uint64
	prevWord uint64
}

// pendingTrain defers predictor training to the load's completion,
// modeling the prediction-to-update latency that produces the paper's
// training-time effects (Table V). Trainings are applied in program
// order (commit order): a load's update becomes visible once it and
// every older load have executed, keeping stride/context state coherent
// under out-of-order completion.
type pendingTrain struct {
	trainC  uint64
	outcome core.Outcome
	rec     uint64 // engine record handle from Probe
	probeC  uint64 // PAQ probe cycle for address resolution
	specSeq uint64 // the load's sequence number
	fcAt    uint64 // fetch cycle when queued (a lower bound on probeC)
}

// instretEvery is the cadence, in retired instructions, at which the
// pipeline flushes the batched Instret count to the engine.
const instretEvery = 4096

// trainQueue is a FIFO of pending trainings in program order. Records
// are filled and drained in place — push hands out the new slot, front
// the oldest — so the per-load path never copies a record.
type trainQueue struct {
	q    []pendingTrain
	head int
}

// push appends a training that completes at trainC and returns its
// slot, which still holds a drained record's fields: the caller sets
// every field but trainC. In-order application: a training never
// becomes visible before an older one, so the slot carries the running
// maximum completion cycle.
func (t *trainQueue) push(trainC uint64) *pendingTrain {
	n := len(t.q)
	if n > t.head && t.q[n-1].trainC > trainC {
		trainC = t.q[n-1].trainC
	}
	if n < cap(t.q) {
		t.q = t.q[:n+1]
	} else {
		t.q = append(t.q, pendingTrain{})
	}
	p := &t.q[n]
	p.trainC = trainC
	return p
}

// front returns the oldest queued training, or nil when none is
// queued. The record stays valid until the next push.
func (t *trainQueue) front() *pendingTrain {
	if t.head >= len(t.q) {
		return nil
	}
	return &t.q[t.head]
}

// drop removes the oldest queued training.
func (t *trainQueue) drop() {
	t.head++
	if t.head == len(t.q) {
		t.q = t.q[:0]
		t.head = 0
	}
}

// ctxAddrShift positions a hardware context's address-space tag above
// every address the synthetic workloads (and recorded traces) touch:
// data regions sit at 0x1000_0000+ spaced 16MB apart and PCs below
// 0x100_0000, all far under 2^44. OR-ing `ctx << ctxAddrShift` into the
// addresses a context sends to the shared memory hierarchy keeps the
// contexts' working sets disjoint in the caches and TLB — they contend
// for capacity, as distinct programs on an SMT core do, instead of
// constructively sharing lines because every synthetic workload reuses
// the same virtual layout. Context 0's tag is zero, so the
// single-context path issues bit-identical addresses to the
// pre-refactor pipeline.
const ctxAddrShift = 44

// ctxSlice is the replicable per-context state of the pipeline: one
// hardware context's front-end cursors, window/timing rings, in-flight
// tables, deferred-training queue, architectural memory image, and run
// statistics. Everything a second SMT context needs its own copy of
// lives here; everything the contexts share — the value-prediction
// engine, the branch predictors, the memory hierarchy, the TLB — stays
// on Pipeline. The store-set memory-dependence predictor is per-context
// (its state is keyed by instruction sequence numbers, which are
// per-context streams), as are the branch histories feeding the shared
// TAGE/ITTAGE tables.
type ctxSlice struct {
	id   int
	asid uint64 // id << ctxAddrShift; OR'd into shared-hierarchy addresses

	mdp *memdep.Predictor

	hist     branch.History
	loadPath uint64

	simMem *mem.Backing

	// Fetch bandwidth accounting.
	fetchCycle uint64
	fetchUsed  int
	redirectC  uint64

	// Commit bandwidth accounting.
	commitCycle uint64
	commitUsed  int

	regReady [trace.NumRegs]uint64

	ring      []slotTiming
	ringMask  uint64
	loadRing  []loadStoreTiming
	storeRing []loadStoreTiming
	nLoads    uint64
	nStores   uint64

	// Per-cycle resource claims (issue bandwidth, load/store lanes, PAQ
	// probe ports), formerly cycle-keyed maps.
	laneUse cycleRing
	lsUse   cycleRing
	paqUse  cycleRing

	pending  trainQueue
	paqQueue []uint64 // completion cycles of recent PAQ probes
	paqHead  int

	// Bounded open-addressing tables, formerly maps (see rings.go).
	inflight  countTable // pc → in-flight probed loads
	lastStore storeTable // word → most recent store
	lineFill  fillTable  // 64B line → cycle its PAQ prefetch completes

	// Reusable address resolver parameters: trainOne parameterizes the
	// pipeline's shared closure via these fields instead of allocating a
	// fresh closure per training.
	trainSeq    uint64
	trainProbeC uint64

	run stats.Run

	// Scratch instruction slot for the run loop. A local would escape
	// to the heap through the gen.Next interface call, costing one
	// allocation per run.
	in trace.Inst

	// Branch outcomes of a single-context run over a recording (see
	// beginOutcomes): brKnown holds the mispredict bits the run replays
	// instead of predicting, brSeen collects them for publication. At
	// most one is set, and only for the run's duration.
	brKnown []uint64
	brSeen  []uint64

	// Interleaved-run cursor state (RunSMT).
	seq        uint64
	lastCommit uint64
	done       bool

	// Per-context progress row (see SetProgressRows). progLeft counts
	// down to the next publication.
	progress *Progress
	progLeft uint64
}

// build (re)constructs the slice's config-sized structures.
func (s *ctxSlice) build(cfg Config, id int) {
	s.id = id
	s.asid = uint64(id) << ctxAddrShift
	s.mdp = memdep.New(cfg.MemDep)
	s.loadRing = make([]loadStoreTiming, cfg.LDQ+1)
	s.storeRing = make([]loadStoreTiming, cfg.STQ+1)
	s.ring = make([]slotTiming, timingRingSize(cfg))
	s.ringMask = uint64(len(s.ring) - 1)
	n := cycleRingSize(cfg)
	s.laneUse = newCycleRing(n)
	s.lsUse = newCycleRing(n)
	s.paqUse = newCycleRing(n)
	s.lastStore = newStoreTable(4096)
	s.lineFill = newFillTable(16384)
	s.inflight = newCountTable(4096)
	s.simMem = nil
	s.resetRun()
}

// reset recycles the slice's allocations for a fresh run.
func (s *ctxSlice) reset() {
	s.mdp.Reset()
	s.laneUse.reset()
	s.lsUse.reset()
	s.paqUse.reset()
	s.lastStore.reset()
	s.lineFill.reset()
	s.inflight.reset()
	s.resetRun()
}

// resetRun clears the per-run scalar state (shared by build and reset).
func (s *ctxSlice) resetRun() {
	s.hist = branch.History{}
	s.loadPath = 0
	s.fetchCycle, s.fetchUsed, s.redirectC = 0, 0, 0
	s.commitCycle, s.commitUsed = 0, 0
	s.regReady = [trace.NumRegs]uint64{}
	s.nLoads, s.nStores = 0, 0
	s.pending.q = s.pending.q[:0]
	s.pending.head = 0
	s.paqQueue = s.paqQueue[:0]
	s.paqHead = 0
	s.trainSeq, s.trainProbeC = 0, 0
	s.run = stats.Run{}
	s.seq, s.lastCommit, s.done = 0, 0, false
	s.progress, s.progLeft = nil, 0
}

// Pipeline is the trace-driven core model. A pipeline serves one run at
// a time; Reset (or the package's Acquire/Release pool) recycles it for
// the next run without re-allocating the hierarchy, predictors, or
// rings. The steady-state per-instruction path performs no map
// operations and no heap allocations.
//
// The pipeline is split into a shared machine core (this struct: the
// value-prediction engine, TAGE/ITTAGE/RAS, the memory hierarchy and
// its TLB) and cfg.Contexts replicable per-context slices (ctxSlice:
// fetch/replay state, rings, in-flight tables, per-context stats.Run).
// Run/RunCtx simulate context 0 alone — the single-context model,
// bit-identical to the pre-split pipeline; RunSMT interleaves all
// contexts over independent instruction streams, contending for the
// shared predictor tables, caches, and TLB (see DESIGN.md §14).
type Pipeline struct {
	cfg    Config
	hier   *mem.Hierarchy
	tage   *branch.TAGE
	ittage *branch.ITTAGE
	ras    *branch.RAS
	engine Engine

	// one is context 0, embedded so the single-context path keeps its
	// state inline with the pipeline (and so a fresh Pipeline is usable
	// without a slice allocation); ctxs lists every context, ctxs[0] ==
	// &one, with extra providing the backing for contexts 1..N-1.
	one   ctxSlice
	extra []ctxSlice
	ctxs  []*ctxSlice

	// cur is the context whose instruction is mid-step: the shared
	// address resolver closure dispatches through it.
	cur *ctxSlice

	runGen uint64 // current run generation; ring records from other runs are dead

	// branchFresh reports that TAGE, ITTAGE and the RAS are untouched
	// since build or Reset, the state a recording's branch outcomes are
	// computed from.
	branchFresh bool

	// Reusable address resolver: trainOne parameterizes the closure via
	// cur's trainSeq/trainProbeC fields instead of allocating a fresh
	// closure per training.
	resolve core.AddrResolver

	// instretBatch counts retirements across all contexts: the engine's
	// epoch machinery advances on machine-wide retirement, exactly as a
	// shared physical predictor would.
	instretBatch uint64

	// Aggregate progress probe (see progress.go). progLeft counts down
	// to the next publication; zero cadence means no probe attached.
	progress  *Progress
	progEvery uint64
	progLeft  uint64
	progStart int64
}

// New builds a pipeline with the given configuration and value
// prediction engine (nil = baseline, no value prediction).
func New(cfg Config, engine Engine) *Pipeline {
	p := &Pipeline{}
	p.build(cfg, engine)
	return p
}

// contextCount normalizes cfg.Contexts: 0 and 1 both mean one context.
func contextCount(cfg Config) int {
	if cfg.Contexts > 1 {
		return cfg.Contexts
	}
	return 1
}

// build (re)constructs every config-sized structure.
func (p *Pipeline) build(cfg Config, engine Engine) {
	p.cfg = cfg
	p.hier = mem.NewHierarchy(cfg.Hierarchy)
	p.tage = branch.NewTAGE(cfg.TAGE)
	p.ittage = branch.NewITTAGE(cfg.ITTAGE)
	p.ras = branch.NewRAS(cfg.RASSize)
	p.engine = engine
	n := contextCount(cfg)
	p.one.build(cfg, 0)
	p.extra = make([]ctxSlice, n-1)
	p.ctxs = make([]*ctxSlice, n)
	p.ctxs[0] = &p.one
	for i := range p.extra {
		p.extra[i].build(cfg, i+1)
		p.ctxs[i+1] = &p.extra[i]
	}
	p.cur = &p.one
	p.branchFresh = true
	if p.resolve == nil {
		p.resolve = func(addr uint64, size uint8) (uint64, bool) {
			s := p.cur
			if !p.hier.L1D.Peek(addr | s.asid) {
				return 0, false
			}
			return p.probeRead(s, addr, size, s.trainSeq, s.trainProbeC), true
		}
	}
}

// configEqual compares configurations field by field. Hand-rolled
// rather than reflect.DeepEqual so the pooled steady state (Reset with
// an identical Config every run) allocates nothing; the branch
// predictor sub-configs carry history-length slices, which rule out
// plain ==. TestConfigEqualCoversEveryField perturbs each field via
// reflection, so a new Config field that this function ignores fails
// the suite rather than silently aliasing distinct configurations.
func configEqual(a, b Config) bool {
	return a.FetchWidth == b.FetchWidth &&
		a.FetchToExec == b.FetchToExec &&
		a.IssueWidth == b.IssueWidth &&
		a.CommitWidth == b.CommitWidth &&
		a.LSLanes == b.LSLanes &&
		a.ROB == b.ROB &&
		a.IQ == b.IQ &&
		a.LDQ == b.LDQ &&
		a.STQ == b.STQ &&
		a.StoreForwardLat == b.StoreForwardLat &&
		a.Hierarchy == b.Hierarchy &&
		a.TAGE.Equal(b.TAGE) &&
		a.ITTAGE.Equal(b.ITTAGE) &&
		a.RASSize == b.RASSize &&
		a.MemDep == b.MemDep &&
		a.PAQDepth == b.PAQDepth &&
		a.PAQPrefetchOnMiss == b.PAQPrefetchOnMiss &&
		a.SuppressStoreConflicts == b.SuppressStoreConflicts &&
		a.ReplayRecovery == b.ReplayRecovery &&
		a.ReplayPenalty == b.ReplayPenalty &&
		a.Contexts == b.Contexts &&
		a.SMTQuantum == b.SMTQuantum
}

// Reset prepares the pipeline for a fresh run with cfg and engine,
// reusing every allocation when cfg matches the previous run's
// configuration. A reset pipeline behaves bit-identically to a newly
// constructed one.
func (p *Pipeline) Reset(cfg Config, engine Engine) {
	if p.hier == nil || !configEqual(cfg, p.cfg) {
		p.build(cfg, engine)
	} else {
		p.hier.Reset()
		p.tage.Reset()
		p.ittage.Reset()
		p.ras.Reset()
		for _, s := range p.ctxs {
			s.reset()
		}
		p.engine = engine
	}
	p.cur = &p.one
	p.branchFresh = true
	p.runGen++ // retire all ring records without clearing 256KB
	p.instretBatch = 0
	p.progress, p.progEvery, p.progLeft, p.progStart = nil, 0, 0, 0
}

// NumContexts returns how many hardware contexts the pipeline was built
// with (always at least 1).
func (p *Pipeline) NumContexts() int { return len(p.ctxs) }

// ContextRun returns context i's statistics for the most recent run.
// After Run/RunCtx only context 0 carries a run; after RunSMT every
// context does.
func (p *Pipeline) ContextRun(i int) stats.Run { return p.ctxs[i].run }

// SetProgress attaches a progress slot the next run publishes live
// snapshots into, every `every` instructions (<= 0 means
// DefaultProgressInterval). Call after Reset/Acquire and before Run;
// Reset detaches the slot so pooled pipelines never publish into a
// previous owner's slot. The probe costs one counter decrement per
// instruction plus a fixed set of atomic stores per publication, and
// allocates nothing. Under RunSMT the slot receives machine-wide
// aggregates; SetProgressRows adds per-context rows.
func (p *Pipeline) SetProgress(pr *Progress, every int) {
	p.progress = pr
	if every <= 0 {
		every = DefaultProgressInterval
	}
	p.progEvery = uint64(every)
}

// SetProgressRows attaches one progress row per hardware context:
// rows[i] receives context i's live snapshot on the same cadence as the
// aggregate slot (rows beyond the context count are ignored, contexts
// beyond len(rows) publish no row). Component telemetry in a row
// reflects the shared engine, not the single context. Call after
// Reset/Acquire and before the run, alongside SetProgress.
func (p *Pipeline) SetProgressRows(rows []*Progress, every int) {
	if every <= 0 {
		every = DefaultProgressInterval
	}
	for i, s := range p.ctxs {
		if i >= len(rows) {
			break
		}
		s.progress = rows[i]
		s.progLeft = uint64(every)
	}
	if p.progEvery == 0 {
		p.progEvery = uint64(every)
	}
}

// publishProgress snapshots a run's counters into pr.
func (p *Pipeline) publishProgress(pr *Progress, r *stats.Run, insts, cycles uint64) {
	s := ProgressSnapshot{
		Instructions:     insts,
		Cycles:           cycles,
		Loads:            r.Loads,
		PredictedLoads:   r.PredictedLoads,
		CorrectPredicted: r.CorrectPredicted,
		VPFlushes:        r.VPFlushes,
		StartedNano:      p.progStart,
		UpdatedNano:      time.Now().UnixNano(),
	}
	if ts, ok := p.engine.(TelemetrySource); ok {
		t := ts.Telemetry()
		s.Used, s.Correct, s.Incorrect = t.Used, t.Correct, t.Incorrect
		s.MPKP, s.Silenced = t.MPKP, t.Silenced
	}
	pr.publish(&s)
}

// publishSMTProgress publishes the machine-wide aggregate of an
// interleaved run: summed counters, the maximum per-context commit
// cycle.
func (p *Pipeline) publishSMTProgress() {
	var agg stats.Run
	var insts, cycles uint64
	for _, s := range p.ctxs {
		insts += s.seq
		if s.lastCommit > cycles {
			cycles = s.lastCommit
		}
		agg.Loads += s.run.Loads
		agg.PredictedLoads += s.run.PredictedLoads
		agg.CorrectPredicted += s.run.CorrectPredicted
		agg.VPFlushes += s.run.VPFlushes
	}
	p.publishProgress(p.progress, &agg, insts, cycles)
}

// Hierarchy exposes the memory system (for inspection in tests and
// experiments).
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// resourceClobbers reports how often a cycle ring overwrote a live
// future claim — always zero when the rings are sized correctly (the
// golden test asserts this).
func (p *Pipeline) resourceClobbers() uint64 {
	var n uint64
	for _, s := range p.ctxs {
		n += s.laneUse.clobbers + s.lsUse.clobbers + s.paqUse.clobbers
	}
	return n
}

// cancelCheckInterval is how many instructions run between context
// cancellation checks in RunCtx. It bounds how long a cancelled
// simulation keeps running: one check interval at most.
const cancelCheckInterval = 8192

// instSlicer is the optional Generator refinement the run loop uses to
// walk an in-memory instruction stream in place (implemented by
// trace.Replay and artifact cursors). The returned slice is read-only:
// step never writes through its *trace.Inst, so one recording can feed
// many concurrent pipelines.
type instSlicer interface {
	Remaining() []trace.Inst
	Advance(n int)
}

// Run simulates gen to completion and returns the collected metrics.
func (p *Pipeline) Run(gen trace.Generator, workload, config string) stats.Run {
	return p.RunCtx(context.Background(), gen, workload, config)
}

// RunCtx simulates gen to completion or until ctx is cancelled,
// whichever comes first, and returns the collected metrics.
// Cancellation is checked every cancelCheckInterval instructions (and
// once before the first), so a cancelled run returns within one
// interval with Aborted set and metrics covering the simulated prefix.
// RunCtx always simulates context 0, regardless of cfg.Contexts — use
// RunSMT to drive every context.
//
// A run over a recording may replay the recording's branch outcomes
// instead of predicting them, or publish the outcomes it predicted for
// later runs (see beginOutcomes); the returned metrics are the same
// either way.
func (p *Pipeline) RunCtx(ctx context.Context, gen trace.Generator, workload, config string) stats.Run {
	s := &p.one
	p.cur = s
	fresh := p.branchFresh
	p.branchFresh = false
	// The simulator's memory image starts equal to the workload's: the
	// backing fill function is shared via Clone, and stores are applied
	// as they execute. A reused pipeline copies into its existing image
	// instead of allocating a new one.
	if s.simMem == nil {
		s.simMem = gen.Mem().Clone()
	} else {
		s.simMem.CopyFrom(gen.Mem())
	}

	s.run = stats.Run{Workload: workload, Config: config}
	if p.progress != nil {
		p.progStart = time.Now().UnixNano()
		p.progLeft = p.progEvery
	}
	done := ctx.Done()
	var seq uint64
	var lastCommit uint64
	if sl, ok := gen.(instSlicer); ok {
		// Slice fast path: generators whose remaining stream is already
		// in memory (Replay, artifact cursors) are walked in place — no
		// per-instruction interface dispatch, no 64-byte copy into the
		// scratch slot. Identical control flow to the generic loop below.
		insts := sl.Remaining()
		rec, _ := gen.(*trace.Replay)
		var held *trace.BranchOutcomes
		if rec != nil && fresh && rec.Pos() == 0 {
			held = p.beginOutcomes(s, rec, len(insts))
		}
		for seq < uint64(len(insts)) {
			if done != nil && seq%cancelCheckInterval == 0 {
				select {
				case <-done:
					s.run.Aborted = true
				default:
				}
				if s.run.Aborted {
					break
				}
			}
			lastCommit = p.step(s, seq, &insts[seq])
			seq++
			if seq%4096 == 0 {
				p.prune(s)
			}
			if p.progress != nil {
				p.progLeft--
				if p.progLeft == 0 {
					p.progLeft = p.progEvery
					p.publishProgress(p.progress, &s.run, seq, lastCommit)
				}
			}
		}
		sl.Advance(int(seq))
		if s.brSeen != nil && !s.run.Aborted {
			p.publishOutcomes(s, rec, held, len(insts))
		}
		s.brKnown, s.brSeen = nil, nil
	} else {
		for {
			if done != nil && seq%cancelCheckInterval == 0 {
				select {
				case <-done:
					s.run.Aborted = true
				default:
				}
				if s.run.Aborted {
					break
				}
			}
			if !gen.Next(&s.in) {
				break
			}
			lastCommit = p.step(s, seq, &s.in)
			seq++
			if seq%4096 == 0 {
				p.prune(s)
			}
			if p.progress != nil {
				p.progLeft--
				if p.progLeft == 0 {
					p.progLeft = p.progEvery
					p.publishProgress(p.progress, &s.run, seq, lastCommit)
				}
			}
		}
	}
	s.run.Instructions = seq
	s.run.Cycles = lastCommit
	if p.engine != nil && p.instretBatch > 0 {
		p.engine.Instret(p.instretBatch)
		p.instretBatch = 0
	}
	if p.progress != nil {
		p.publishProgress(p.progress, &s.run, seq, lastCommit)
	}
	return s.run
}

// RunSMT simulates one generator per hardware context to completion,
// interleaving the contexts round-robin with cfg.SMTQuantum
// instructions per turn (<= 0 means one — per-instruction round-robin).
// See RunSMTCtx.
func (p *Pipeline) RunSMT(gens []trace.Generator, workloads []string, label, config string) stats.Run {
	return p.RunSMTCtx(context.Background(), gens, workloads, label, config)
}

// RunSMTCtx simulates len(gens) == NumContexts() instruction streams,
// one per hardware context, until every stream is exhausted or ctx is
// cancelled. The contexts share the value-prediction engine, the branch
// predictor tables and the RAS (each context keeps its own history
// registers; cross-context call/return interleaving corrupts the shared
// RAS exactly as on a real shared-RAS SMT core), the cache hierarchy,
// and the TLB; each context's addresses are tagged
// with its context ID above the workloads' address space, so contexts
// contend for cache and TLB capacity instead of constructively sharing
// the synthetic workloads' identical virtual layout.
//
// workloads[i] labels context i's stats.Run (retrieve them with
// ContextRun); the returned Run is the machine-wide merge — summed
// counters, Cycles the maximum per-context commit cycle — labeled with
// label. Cancellation marks every unfinished context's run (and the
// merged run) Aborted.
func (p *Pipeline) RunSMTCtx(ctx context.Context, gens []trace.Generator, workloads []string, label, config string) stats.Run {
	if len(gens) != len(p.ctxs) {
		panic(fmt.Sprintf("cpu: RunSMT: %d generators for a %d-context pipeline", len(gens), len(p.ctxs)))
	}
	// The contexts share TAGE, ITTAGE and the RAS, so their outcomes
	// depend on the interleaving: RunSMT always predicts live.
	p.branchFresh = false
	for i, s := range p.ctxs {
		if s.simMem == nil {
			s.simMem = gens[i].Mem().Clone()
		} else {
			s.simMem.CopyFrom(gens[i].Mem())
		}
		s.run = stats.Run{Workload: workloads[i], Config: config}
	}
	if p.progress != nil {
		p.progStart = time.Now().UnixNano()
		p.progLeft = p.progEvery
	}
	quantum := p.cfg.SMTQuantum
	if quantum <= 0 {
		quantum = 1
	}
	done := ctx.Done()
	var total, checkAt uint64
	aborted := false
	active := len(p.ctxs)
	for active > 0 && !aborted {
		for i, s := range p.ctxs {
			if s.done {
				continue
			}
			if done != nil && total >= checkAt {
				select {
				case <-done:
					aborted = true
				default:
				}
				checkAt = total + cancelCheckInterval
				if aborted {
					break
				}
			}
			p.cur = s
			gen := gens[i]
			for q := 0; q < quantum; q++ {
				if !gen.Next(&s.in) {
					s.done = true
					active--
					break
				}
				s.lastCommit = p.step(s, s.seq, &s.in)
				s.seq++
				total++
				if s.seq%4096 == 0 {
					p.prune(s)
				}
				if s.progress != nil {
					s.progLeft--
					if s.progLeft == 0 {
						s.progLeft = p.progEvery
						p.publishProgress(s.progress, &s.run, s.seq, s.lastCommit)
					}
				}
				if p.progress != nil {
					p.progLeft--
					if p.progLeft == 0 {
						p.progLeft = p.progEvery
						p.publishSMTProgress()
					}
				}
			}
		}
	}
	merged := stats.Run{Workload: label, Config: config, Aborted: aborted}
	for _, s := range p.ctxs {
		s.run.Instructions = s.seq
		s.run.Cycles = s.lastCommit
		s.run.Aborted = aborted && !s.done
		stats.Accumulate(&merged, s.run)
	}
	if p.engine != nil && p.instretBatch > 0 {
		p.engine.Instret(p.instretBatch)
		p.instretBatch = 0
	}
	for _, s := range p.ctxs {
		if s.progress != nil {
			p.publishProgress(s.progress, &s.run, s.seq, s.lastCommit)
		}
	}
	if p.progress != nil {
		p.publishSMTProgress()
	}
	return merged
}

// beginOutcomes sets up how context s's run over the first n
// instructions of rec treats branches, and returns the slot's contents
// at run start. On a fresh pipeline TAGE, ITTAGE and the RAS see only
// this stream, so whether each branch is mispredicted depends on the
// instructions and the branch configuration alone. The run therefore
// replays the recording's published outcomes when they were computed
// under this configuration and cover at least n instructions; it
// collects its own for publication when the slot is empty or holds
// this configuration's outcomes for a shorter prefix; otherwise it
// predicts live and leaves the slot alone.
func (p *Pipeline) beginOutcomes(s *ctxSlice, rec *trace.Replay, n int) *trace.BranchOutcomes {
	held := rec.BranchOutcomes()
	switch {
	case held == nil:
		s.brSeen = make([]uint64, (n+63)/64)
	case !held.TAGE.Equal(p.cfg.TAGE) || !held.ITTAGE.Equal(p.cfg.ITTAGE) || held.RASSize != p.cfg.RASSize:
	case n <= held.Len:
		s.brKnown = held.Mispredicted
	default:
		s.brSeen = make([]uint64, (n+63)/64)
	}
	return held
}

// publishOutcomes offers the outcomes context s collected over the
// first n instructions of rec to later runs. It replaces held, what
// the slot held at run start; if another run published in between,
// that publication stands.
func (p *Pipeline) publishOutcomes(s *ctxSlice, rec *trace.Replay, held *trace.BranchOutcomes, n int) {
	o := &trace.BranchOutcomes{
		TAGE:         p.cfg.TAGE,
		ITTAGE:       p.cfg.ITTAGE,
		RASSize:      p.cfg.RASSize,
		Len:          n,
		Mispredicted: s.brSeen,
	}
	// The configuration's history lengths are the caller's slices.
	o.TAGE.HistoryLens = slices.Clone(o.TAGE.HistoryLens)
	o.ITTAGE.HistoryLens = slices.Clone(o.ITTAGE.HistoryLens)
	rec.PublishBranchOutcomes(held, o)
}

// step processes one of context s's instructions through every pipeline
// stage and returns its commit cycle.
func (p *Pipeline) step(s *ctxSlice, seq uint64, in *trace.Inst) uint64 {
	// ---- Window backpressure ----
	// An instruction cannot dispatch until the ROB/IQ/LDQ/STQ have
	// space; a stalled rename stage backpressures fetch, so the stall
	// is computed first and fed to the fetch stage as a floor. Without
	// this feedback, fetch (and the value predictor probes that happen
	// there) would run unboundedly ahead of execution.
	var windowReady uint64
	if seq >= uint64(p.cfg.ROB) {
		if c := p.ringAt(s, seq-uint64(p.cfg.ROB)); c != nil && c.commitC > windowReady {
			windowReady = c.commitC
		}
	}
	if seq >= uint64(p.cfg.IQ) {
		if c := p.ringAt(s, seq-uint64(p.cfg.IQ)); c != nil && c.issueC > windowReady {
			windowReady = c.issueC
		}
	}
	switch in.Op {
	case trace.OpLoad:
		if s.nLoads >= uint64(p.cfg.LDQ) {
			old := s.loadRing[(s.nLoads-uint64(p.cfg.LDQ))%uint64(len(s.loadRing))]
			if old.commitC > windowReady {
				windowReady = old.commitC
			}
		}
	case trace.OpStore:
		if s.nStores >= uint64(p.cfg.STQ) {
			old := s.storeRing[(s.nStores-uint64(p.cfg.STQ))%uint64(len(s.storeRing))]
			if old.commitC > windowReady {
				windowReady = old.commitC
			}
		}
	}
	var fetchFloor uint64
	if windowReady > uint64(p.cfg.FetchToExec) {
		fetchFloor = windowReady - uint64(p.cfg.FetchToExec)
	}

	// ---- Fetch ----
	fc := p.fetch(s, in.PC, fetchFloor)

	// ---- Rename/dispatch ----
	dC := fc + uint64(p.cfg.FetchToExec)
	if windowReady > dC {
		dC = windowReady
	}

	// ---- Branch prediction (front end) ----
	brMispred := false
	if in.IsBranch() {
		brMispred = p.predictBranch(s, seq, in)
	}

	// ---- Value prediction probe (fetch stage, Figure 1 step 1) ----
	var (
		rec       uint64
		pred      core.Prediction
		delivered bool
		specOK    bool
		specValue uint64
		specReady uint64
		probeC    uint64
		probe     core.Probe
	)
	isPredictableLoad := in.Op == trace.OpLoad && !in.Flags.NoPredict() && p.engine != nil
	if in.Op == trace.OpLoad {
		s.run.Loads++
	}
	if isPredictableLoad {
		p.applyTrains(s, fc)
		probe = core.Probe{
			PC:         in.PC,
			BranchHist: s.hist.Global,
			LoadPath:   s.loadPath,
			Inflight:   s.inflight.get(in.PC),
		}
		rec, pred, delivered = p.engine.Probe(probe)
		s.inflight.inc(in.PC)
		// Even when no prediction is delivered, validation of the
		// squashed/unchosen components resolves addresses as a probe
		// issued shortly after fetch would have.
		probeC = fc + 2
		if delivered {
			switch pred.Kind {
			case core.KindValue:
				// Forwarded to the VPE: consumers can read it from
				// rename onward — effectively available at dispatch.
				specOK = true
				specValue = pred.Value
				specReady = dC
				probeC = fc
			case core.KindAddress:
				// Loads the store-set predictor knows to conflict with
				// in-flight stores are not speculated through the data
				// cache: the probe would race the store's data (the
				// conflicting-store hazard DLVP mitigates).
				conflict := false
				if p.cfg.SuppressStoreConflicts {
					_, conflict = s.mdp.LoadDependence(in.PC)
				}
				if !conflict && p.paqAdmit(s, fc) {
					// Enters the PAQ; waits for a load-pipe bubble,
					// then probes the L1D (steps 2-4 of Figure 1).
					probeC = p.allocLSLane(s, fc+2)
					lat, hit := p.hier.ProbeD(pred.Addr | s.asid)
					p.paqRecord(s, probeC+uint64(lat))
					if hit {
						specOK = true
						specValue = p.probeRead(s, pred.Addr, pred.Size, seq, probeC)
						specReady = probeC + uint64(lat)
					} else if p.cfg.PAQPrefetchOnMiss {
						// Probe miss: no speculative value, but the
						// miss generates a data prefetch (Figure 1
						// step 5) that accelerates the load itself.
						fillLat := p.hier.PrefetchAccess(pred.Addr | s.asid)
						s.lineFill.putMin(pred.Addr>>6, probeC+uint64(fillLat))
					}
				}
			}
		}
	}
	if in.Op == trace.OpLoad {
		// The load path history shifts in each fetched load's PC,
		// after the probe (CAP predicts from the path *leading to* the
		// load).
		s.loadPath = (s.loadPath << 6) ^ ((in.PC >> 2) & 0xFFF)
	}

	// ---- Source readiness ----
	rdy := dC
	if in.Src1 != 0 && s.regReady[in.Src1] > rdy {
		rdy = s.regReady[in.Src1]
	}
	if in.Src2 != 0 && s.regReady[in.Src2] > rdy {
		rdy = s.regReady[in.Src2]
	}

	// Store-set dependence: a load predicted to conflict waits for the
	// flagged store's execution.
	if in.Op == trace.OpLoad {
		if depSeq, ok := s.mdp.LoadDependence(in.PC); ok {
			if c := p.ringAt(s, depSeq); c != nil && c.execDone > rdy {
				rdy = c.execDone
			}
		}
	}
	if in.Op == trace.OpStore {
		s.mdp.StoreFetched(in.PC, seq)
	}

	// ---- Issue ----
	isLS := in.Op == trace.OpLoad || in.Op == trace.OpStore
	issueC := p.allocIssue(s, rdy, isLS)

	// ---- Execute ----
	var execDone uint64
	flush := false
	switch in.Op {
	case trace.OpLoad:
		execDone, flush = p.executeLoad(s, seq, in, issueC)
	case trace.OpStore:
		p.executeStore(s, seq, in, issueC)
		execDone = issueC + 1
	default:
		lat := uint64(in.Lat)
		if lat == 0 {
			lat = 1
		}
		execDone = issueC + lat
	}

	// ---- Validate value prediction ----
	vpCorrect := false
	if delivered {
		vpCorrect = specOK && specValue == in.Value
		if specOK {
			s.run.PredictedLoads++
			if vpCorrect {
				s.run.CorrectPredicted++
			}
		}
		if specOK && !vpCorrect {
			s.run.VPFlushes++
			if p.cfg.ReplayRecovery {
				// Selective replay: consumers of the load re-execute
				// with the correct value after a replay penalty; the
				// front end is not redirected.
				execDone += uint64(p.cfg.ReplayPenalty)
			} else {
				// Flush-based recovery: refetch younger instructions
				// (Figure 1 step 6), as the paper assumes.
				flush = true
			}
		}
	}

	// ---- Writeback ----
	if in.Dst != 0 {
		ready := execDone
		if vpCorrect && specReady < ready {
			ready = specReady
		}
		s.regReady[in.Dst] = ready
	}

	// ---- Redirects ----
	if brMispred {
		s.run.BranchFlushes++
		flush = true
	}
	if flush && execDone+1 > s.redirectC {
		s.redirectC = execDone + 1
	}

	// ---- Train the value predictor at execute ----
	if isPredictableLoad {
		t := s.pending.push(execDone)
		t.outcome.PC = in.PC
		t.outcome.BranchHist = probe.BranchHist
		t.outcome.LoadPath = probe.LoadPath
		t.outcome.Addr = in.Addr
		t.outcome.Size = in.Size
		t.outcome.Value = in.Value
		t.rec = rec
		t.probeC = probeC
		t.specSeq = seq
		t.fcAt = fc
	}

	// ---- Commit (in order, width-limited) ----
	cc := execDone + 1
	if cc < s.commitCycle {
		cc = s.commitCycle
	}
	if cc == s.commitCycle && s.commitUsed >= p.cfg.CommitWidth {
		cc++
	}
	if cc != s.commitCycle {
		s.commitCycle = cc
		s.commitUsed = 0
	}
	s.commitUsed++

	// Assigned field by field: a composite literal would be built on
	// the stack and copied in, and the copy's 16-byte load cannot be
	// forwarded from the two 8-byte stores that built it.
	r := &s.ring[seq&s.ringMask]
	r.seq, r.run, r.issueC, r.execDone, r.commitC = seq, p.runGen, issueC, execDone, cc
	switch in.Op {
	case trace.OpLoad:
		s.loadRing[s.nLoads%uint64(len(s.loadRing))] = loadStoreTiming{seq: seq, commitC: cc}
		s.nLoads++
	case trace.OpStore:
		s.storeRing[s.nStores%uint64(len(s.storeRing))] = loadStoreTiming{seq: seq, commitC: cc}
		s.nStores++
	}

	if p.engine != nil {
		p.instretBatch++
		if p.instretBatch >= instretEvery {
			p.engine.Instret(p.instretBatch)
			p.instretBatch = 0
		}
	}
	return cc
}

// fetch returns this instruction's fetch cycle, honoring redirects,
// window backpressure (floor), fetch width, and instruction cache
// misses.
func (p *Pipeline) fetch(s *ctxSlice, pc uint64, floor uint64) uint64 {
	start := s.fetchCycle
	if s.redirectC > start {
		start = s.redirectC
	}
	if floor > start {
		start = floor
	}
	iLat := p.hier.InstAccess(pc | s.asid)
	if base := p.cfg.Hierarchy.L1I.Latency; iLat > base {
		// I-cache miss: front-end bubble for the extra latency.
		start += uint64(iLat - base)
	}
	if start != s.fetchCycle {
		s.fetchCycle = start
		s.fetchUsed = 0
	}
	if s.fetchUsed >= p.cfg.FetchWidth {
		s.fetchCycle++
		s.fetchUsed = 0
	}
	s.fetchUsed++
	return s.fetchCycle
}

// executeLoad computes a load's completion, modeling store forwarding,
// memory-ordering violations, and the data cache.
func (p *Pipeline) executeLoad(s *ctxSlice, seq uint64, in *trace.Inst, issueC uint64) (execDone uint64, flush bool) {
	word := in.Addr >> 3
	ls, haveStore := s.lastStore.get(word)
	if haveStore && ls.seq < seq {
		if issueC < ls.execDone {
			// The load issued before an older conflicting store
			// executed: memory-ordering violation. Flush, replay after
			// the store, and train the store-set predictor.
			s.run.MemOrderFlushes++
			s.mdp.Violation(in.PC, ls.pc)
			execDone = ls.execDone + uint64(p.cfg.StoreForwardLat)
			return execDone, true
		}
		if recent := s.nStores > 0 && seq-ls.seq <= uint64(p.cfg.STQ)*4; recent {
			// Store-to-load forwarding from the STQ.
			return issueC + uint64(p.cfg.StoreForwardLat), false
		}
	}
	lat := p.hier.DataAccess(in.PC, in.Addr|s.asid)
	done := issueC + uint64(lat)
	// A PAQ prefetch in flight for this line bounds the completion: the
	// demand access cannot finish before the fill arrives, but benefits
	// from it afterwards.
	if fd, ok := s.lineFill.get(in.Addr >> 6); ok {
		earliest := fd
		if hitDone := issueC + uint64(p.cfg.Hierarchy.L1D.Latency); hitDone > earliest {
			earliest = hitDone
		}
		if earliest < done {
			done = earliest
		}
	}
	return done, false
}

// storeFloor returns a cycle every future lastStore comparison happens
// at or after: the fetch cycle is monotonic and bounds future loads'
// issue/probe cycles, and queued trainings' probe cycles are bounded
// below by the oldest queued training's fetch cycle (trainings drain in
// FIFO order and each probeC is >= its own fetch cycle).
func (p *Pipeline) storeFloor(s *ctxSlice) uint64 {
	floor := s.fetchCycle
	if t := s.pending.front(); t != nil && t.fcAt < floor {
		floor = t.fcAt
	}
	return floor
}

// executeStore applies the store's memory effects and bookkeeping.
func (p *Pipeline) executeStore(s *ctxSlice, seq uint64, in *trace.Inst, issueC uint64) {
	if s.lastStore.crowded() {
		// Evict records no future read can observe: the store executed
		// at or before every future comparison cycle (no violation, no
		// stale-probe window) and is too old to forward from the STQ.
		floor := p.storeFloor(s)
		stq4 := uint64(p.cfg.STQ) * 4
		s.lastStore.compact(func(r storeRecord) bool {
			return r.execDone > floor || seq-r.seq <= stq4
		})
	}
	word := in.Addr >> 3
	s.lastStore.put(word, storeRecord{
		seq:      seq,
		pc:       in.PC,
		execDone: issueC + 1,
		prevWord: s.simMem.Read(in.Addr&^uint64(7), 8),
	})
	s.simMem.Write(in.Addr, in.Size, in.Value)
	// The store's cache access shapes hierarchy state (write-allocate).
	p.hier.DataAccess(in.PC, in.Addr|s.asid)
}

// probeRead models what the PAQ's data-cache probe returns at probeC
// for the load at loadSeq: normally the current memory image, but if an
// older conflicting store executes only after the probe, the probe saw
// the word's previous contents.
func (p *Pipeline) probeRead(s *ctxSlice, addr uint64, size uint8, loadSeq, probeC uint64) uint64 {
	word := addr >> 3
	if ls, ok := s.lastStore.get(word); ok && ls.seq < loadSeq && ls.execDone > probeC {
		off := addr & 7
		if size == 0 || size > 8 {
			size = 8
		}
		if off+uint64(size) <= 8 {
			v := ls.prevWord >> (off * 8)
			if size < 8 {
				v &= (uint64(1) << (size * 8)) - 1
			}
			return v
		}
	}
	return s.simMem.Read(addr, size)
}

// predictBranch runs the front-end predictors and returns whether the
// branch was mispredicted. Histories advance with the actual outcome.
// The TAGE/ITTAGE tables and the RAS are shared across contexts (each
// context keeps its own history registers): cross-context aliasing in
// the tables — and RAS corruption under interleaved call/return streams
// — is part of the SMT contention model. A run replaying a recording's
// outcomes reads the bit and only advances the histories; a run
// collecting them records the bit.
func (p *Pipeline) predictBranch(s *ctxSlice, seq uint64, in *trace.Inst) bool {
	if s.brKnown != nil {
		s.hist.Update(in.PC, in.Op != trace.OpBranch || in.Taken)
		return s.brKnown[seq>>6]&(1<<(seq&63)) != 0
	}
	mispred := false
	switch in.Op {
	case trace.OpBranch:
		predTaken := p.tage.Predict(in.PC, s.hist.Global)
		p.tage.Update(in.PC, s.hist.Global, in.Taken)
		mispred = predTaken != in.Taken
		s.hist.Update(in.PC, in.Taken)
	case trace.OpJump:
		s.hist.Update(in.PC, true)
	case trace.OpCall:
		p.ras.Push(in.PC + 4)
		s.hist.Update(in.PC, true)
	case trace.OpRet:
		mispred = p.ras.Pop() != in.Target
		s.hist.Update(in.PC, true)
	case trace.OpIndirect:
		predTarget := p.ittage.Predict(in.PC, s.hist.Global)
		p.ittage.Update(in.PC, s.hist.Global, in.Target)
		mispred = predTarget != in.Target
		s.hist.Update(in.PC, true)
	}
	if mispred && s.brSeen != nil {
		s.brSeen[seq>>6] |= 1 << (seq & 63)
	}
	return mispred
}

// applyTrains delivers context s's pending predictor trainings, in
// program order, whose loads have completed by cycle c — the
// prediction-to-update latency model.
func (p *Pipeline) applyTrains(s *ctxSlice, c uint64) {
	for {
		t := s.pending.front()
		if t == nil || t.trainC > c {
			return
		}
		p.trainOne(s, t)
		s.pending.drop()
	}
}

func (p *Pipeline) trainOne(s *ctxSlice, t *pendingTrain) {
	s.inflight.dec(t.outcome.PC)
	p.cur = s
	s.trainSeq, s.trainProbeC = t.specSeq, t.probeC
	p.engine.Train(t.outcome, t.rec, p.resolve)
}

// paqAdmit reports whether the Predicted Address Queue has room for a
// new probe at fetch cycle fc: probes whose completion is still in the
// future occupy entries.
func (p *Pipeline) paqAdmit(s *ctxSlice, fc uint64) bool {
	if p.cfg.PAQDepth <= 0 {
		return true
	}
	// Drain completed probes.
	for s.paqHead < len(s.paqQueue) && s.paqQueue[s.paqHead] <= fc {
		s.paqHead++
	}
	if s.paqHead == len(s.paqQueue) {
		s.paqQueue = s.paqQueue[:0]
		s.paqHead = 0
	}
	return len(s.paqQueue)-s.paqHead < p.cfg.PAQDepth
}

// paqRecord notes an admitted probe's completion cycle.
func (p *Pipeline) paqRecord(s *ctxSlice, done uint64) {
	if p.cfg.PAQDepth <= 0 {
		return
	}
	if n := len(s.paqQueue); n > s.paqHead && s.paqQueue[n-1] > done {
		done = s.paqQueue[n-1] // keep the queue monotonic
	}
	s.paqQueue = append(s.paqQueue, done)
}

// allocIssue finds the first cycle at or after start with issue
// bandwidth (and a load/store lane when needed) and claims it.
func (p *Pipeline) allocIssue(s *ctxSlice, start uint64, isLS bool) uint64 {
	for c := start; ; c++ {
		if s.laneUse.get(c) >= p.cfg.IssueWidth {
			continue
		}
		if isLS && s.lsUse.get(c) >= p.cfg.LSLanes {
			continue
		}
		s.laneUse.inc(c)
		if isLS {
			s.lsUse.inc(c)
		}
		return c
	}
}

// allocLSLane schedules a PAQ probe. Probes fill load-pipe bubbles and
// never displace demand accesses (the PAQ "waits for bubbles in the
// load pipeline", Section III-A); we model that as a separate probe
// port budget of LSLanes per cycle, queued behind earlier probes.
func (p *Pipeline) allocLSLane(s *ctxSlice, start uint64) uint64 {
	for c := start; ; c++ {
		if s.paqUse.get(c) < p.cfg.LSLanes {
			s.paqUse.inc(c)
			return c
		}
	}
}

// ringAt returns the timing record for seq if it is still in the ring.
func (p *Pipeline) ringAt(s *ctxSlice, seq uint64) *slotTiming {
	r := &s.ring[seq&s.ringMask]
	if r.seq != seq || r.run != p.runGen {
		return nil
	}
	return r
}

// prune runs on the historical 4096-instruction cadence. The cycle
// rings and the store/inflight tables reclaim space on their own; only
// the line-fill table must evict here, because its stale entries are
// architecturally visible and the map implementation dropped them
// exactly at this cadence.
func (p *Pipeline) prune(s *ctxSlice) {
	s.lineFill.compactBelow(s.fetchCycle)
}
