package cpu

import (
	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memdep"
	"repro/internal/stats"
	"repro/internal/trace"
)

// refPipeline is a frozen copy of the map-based pipeline this package
// shipped before the allocation-free refactor. It is the oracle for the
// differential golden test (golden_test.go): the ring-buffer pipeline
// must produce bit-identical stats.Run results. Apart from renames, the
// only delta from the historical code is the Engine record type (the
// `rec any` boxing became a uint64 handle — pure plumbing that cannot
// affect results, since records flow opaquely from Probe to Train in
// the same order in both implementations).
// refRingSize is the historical fixed timing-ring size. The production
// pipeline now derives a much smaller, cache-resident ring from the
// window configuration (see timingRingSize); the golden differential
// proves the two sizes indistinguishable.
const refRingSize = 8192

type refPipeline struct {
	cfg    Config
	hier   *mem.Hierarchy
	tage   *branch.TAGE
	ittage *branch.ITTAGE
	ras    *branch.RAS
	mdp    *memdep.Predictor
	engine Engine

	hist     branch.History
	loadPath uint64

	simMem *mem.Backing

	fetchCycle uint64
	fetchUsed  int
	redirectC  uint64

	commitCycle uint64
	commitUsed  int

	regReady [trace.NumRegs]uint64

	ring      [refRingSize]slotTiming
	loadRing  []loadStoreTiming
	storeRing []loadStoreTiming
	nLoads    uint64
	nStores   uint64

	laneUse map[uint64]int
	lsUse   map[uint64]int
	paqUse  map[uint64]int

	pending    refTrainQueue
	paqQueue   []uint64
	paqHead    int
	inflightPC map[uint64]int
	lastStore  map[uint64]storeRecord
	lineFill   map[uint64]uint64

	instretBatch uint64
	run          stats.Run
}

func newRefPipeline(cfg Config, engine Engine) *refPipeline {
	return &refPipeline{
		cfg:        cfg,
		hier:       mem.NewHierarchy(cfg.Hierarchy),
		tage:       branch.NewTAGE(cfg.TAGE),
		ittage:     branch.NewITTAGE(cfg.ITTAGE),
		ras:        branch.NewRAS(cfg.RASSize),
		mdp:        memdep.New(cfg.MemDep),
		engine:     engine,
		loadRing:   make([]loadStoreTiming, cfg.LDQ+1),
		storeRing:  make([]loadStoreTiming, cfg.STQ+1),
		laneUse:    make(map[uint64]int),
		lsUse:      make(map[uint64]int),
		paqUse:     make(map[uint64]int),
		inflightPC: make(map[uint64]int),
		lastStore:  make(map[uint64]storeRecord),
		lineFill:   make(map[uint64]uint64),
	}
}

func (p *refPipeline) Run(gen trace.Generator, workload, config string) stats.Run {
	p.simMem = gen.Mem().Clone()

	p.run = stats.Run{Workload: workload, Config: config}
	var in trace.Inst
	var seq uint64
	var lastCommit uint64
	for gen.Next(&in) {
		lastCommit = p.step(seq, &in)
		seq++
		if seq%4096 == 0 {
			p.prune()
		}
	}
	p.run.Instructions = seq
	p.run.Cycles = lastCommit
	if p.engine != nil && p.instretBatch > 0 {
		p.engine.Instret(p.instretBatch)
		p.instretBatch = 0
	}
	return p.run
}

func (p *refPipeline) step(seq uint64, in *trace.Inst) uint64 {
	var windowReady uint64
	if seq >= uint64(p.cfg.ROB) {
		if c := p.ringAt(seq - uint64(p.cfg.ROB)); c != nil && c.commitC > windowReady {
			windowReady = c.commitC
		}
	}
	if seq >= uint64(p.cfg.IQ) {
		if c := p.ringAt(seq - uint64(p.cfg.IQ)); c != nil && c.issueC > windowReady {
			windowReady = c.issueC
		}
	}
	switch in.Op {
	case trace.OpLoad:
		if p.nLoads >= uint64(p.cfg.LDQ) {
			old := p.loadRing[(p.nLoads-uint64(p.cfg.LDQ))%uint64(len(p.loadRing))]
			if old.commitC > windowReady {
				windowReady = old.commitC
			}
		}
	case trace.OpStore:
		if p.nStores >= uint64(p.cfg.STQ) {
			old := p.storeRing[(p.nStores-uint64(p.cfg.STQ))%uint64(len(p.storeRing))]
			if old.commitC > windowReady {
				windowReady = old.commitC
			}
		}
	}
	var fetchFloor uint64
	if windowReady > uint64(p.cfg.FetchToExec) {
		fetchFloor = windowReady - uint64(p.cfg.FetchToExec)
	}

	fc := p.fetch(in.PC, fetchFloor)

	dC := fc + uint64(p.cfg.FetchToExec)
	if windowReady > dC {
		dC = windowReady
	}

	brMispred := false
	if in.IsBranch() {
		brMispred = p.predictBranch(in)
	}

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
		p.run.Loads++
	}
	if isPredictableLoad {
		p.applyTrains(fc)
		probe = core.Probe{
			PC:         in.PC,
			BranchHist: p.hist.Global,
			LoadPath:   p.loadPath,
			Inflight:   p.inflightPC[in.PC],
		}
		rec, pred, delivered = p.engine.Probe(probe)
		p.inflightPC[in.PC]++
		probeC = fc + 2
		if delivered {
			switch pred.Kind {
			case core.KindValue:
				specOK = true
				specValue = pred.Value
				specReady = dC
				probeC = fc
			case core.KindAddress:
				conflict := false
				if p.cfg.SuppressStoreConflicts {
					_, conflict = p.mdp.LoadDependence(in.PC)
				}
				if !conflict && p.paqAdmit(fc) {
					probeC = p.allocLSLane(fc + 2)
					lat, hit := p.hier.ProbeD(pred.Addr)
					p.paqRecord(probeC + uint64(lat))
					if hit {
						specOK = true
						specValue = p.probeRead(pred.Addr, pred.Size, seq, probeC)
						specReady = probeC + uint64(lat)
					} else if p.cfg.PAQPrefetchOnMiss {
						fillLat := p.hier.PrefetchAccess(pred.Addr)
						line := pred.Addr >> 6
						done := probeC + uint64(fillLat)
						if cur, ok := p.lineFill[line]; !ok || done < cur {
							p.lineFill[line] = done
						}
					}
				}
			}
		}
	}
	if in.Op == trace.OpLoad {
		p.loadPath = (p.loadPath << 6) ^ ((in.PC >> 2) & 0xFFF)
	}

	rdy := dC
	if in.Src1 != 0 && p.regReady[in.Src1] > rdy {
		rdy = p.regReady[in.Src1]
	}
	if in.Src2 != 0 && p.regReady[in.Src2] > rdy {
		rdy = p.regReady[in.Src2]
	}

	if in.Op == trace.OpLoad {
		if depSeq, ok := p.mdp.LoadDependence(in.PC); ok {
			if c := p.ringAt(depSeq); c != nil && c.execDone > rdy {
				rdy = c.execDone
			}
		}
	}
	if in.Op == trace.OpStore {
		p.mdp.StoreFetched(in.PC, seq)
	}

	isLS := in.Op == trace.OpLoad || in.Op == trace.OpStore
	issueC := p.allocIssue(rdy, isLS)

	var execDone uint64
	flush := false
	switch in.Op {
	case trace.OpLoad:
		execDone, flush = p.executeLoad(seq, in, issueC)
	case trace.OpStore:
		p.executeStore(seq, in, issueC)
		execDone = issueC + 1
	default:
		lat := uint64(in.Lat)
		if lat == 0 {
			lat = 1
		}
		execDone = issueC + lat
	}

	vpCorrect := false
	if delivered {
		vpCorrect = specOK && specValue == in.Value
		if specOK {
			p.run.PredictedLoads++
			if vpCorrect {
				p.run.CorrectPredicted++
			}
		}
		if specOK && !vpCorrect {
			p.run.VPFlushes++
			if p.cfg.ReplayRecovery {
				execDone += uint64(p.cfg.ReplayPenalty)
			} else {
				flush = true
			}
		}
	}

	if in.Dst != 0 {
		ready := execDone
		if vpCorrect && specReady < ready {
			ready = specReady
		}
		p.regReady[in.Dst] = ready
	}

	if brMispred {
		p.run.BranchFlushes++
		flush = true
	}
	if flush && execDone+1 > p.redirectC {
		p.redirectC = execDone + 1
	}

	if isPredictableLoad {
		p.pending.push(pendingTrain{
			trainC: execDone,
			outcome: core.Outcome{
				PC:         in.PC,
				BranchHist: probe.BranchHist,
				LoadPath:   probe.LoadPath,
				Addr:       in.Addr,
				Size:       in.Size,
				Value:      in.Value,
			},
			rec:     rec,
			probeC:  probeC,
			specSeq: seq,
		})
	}

	cc := execDone + 1
	if cc < p.commitCycle {
		cc = p.commitCycle
	}
	if cc == p.commitCycle && p.commitUsed >= p.cfg.CommitWidth {
		cc++
	}
	if cc != p.commitCycle {
		p.commitCycle = cc
		p.commitUsed = 0
	}
	p.commitUsed++

	p.ring[seq%refRingSize] = slotTiming{seq: seq, issueC: issueC, execDone: execDone, commitC: cc}
	switch in.Op {
	case trace.OpLoad:
		p.loadRing[p.nLoads%uint64(len(p.loadRing))] = loadStoreTiming{seq: seq, commitC: cc}
		p.nLoads++
	case trace.OpStore:
		p.storeRing[p.nStores%uint64(len(p.storeRing))] = loadStoreTiming{seq: seq, commitC: cc}
		p.nStores++
	}

	if p.engine != nil {
		p.instretBatch++
		if p.instretBatch >= 4096 {
			p.engine.Instret(p.instretBatch)
			p.instretBatch = 0
		}
	}
	return cc
}

func (p *refPipeline) fetch(pc uint64, floor uint64) uint64 {
	start := p.fetchCycle
	if p.redirectC > start {
		start = p.redirectC
	}
	if floor > start {
		start = floor
	}
	iLat := p.hier.InstAccess(pc)
	if base := p.cfg.Hierarchy.L1I.Latency; iLat > base {
		start += uint64(iLat - base)
	}
	if start != p.fetchCycle {
		p.fetchCycle = start
		p.fetchUsed = 0
	}
	if p.fetchUsed >= p.cfg.FetchWidth {
		p.fetchCycle++
		p.fetchUsed = 0
	}
	p.fetchUsed++
	return p.fetchCycle
}

func (p *refPipeline) executeLoad(seq uint64, in *trace.Inst, issueC uint64) (execDone uint64, flush bool) {
	word := in.Addr >> 3
	ls, haveStore := p.lastStore[word]
	if haveStore && ls.seq < seq {
		if issueC < ls.execDone {
			p.run.MemOrderFlushes++
			p.mdp.Violation(in.PC, ls.pc)
			execDone = ls.execDone + uint64(p.cfg.StoreForwardLat)
			return execDone, true
		}
		if recent := p.nStores > 0 && seq-ls.seq <= uint64(p.cfg.STQ)*4; recent {
			return issueC + uint64(p.cfg.StoreForwardLat), false
		}
	}
	lat := p.hier.DataAccess(in.PC, in.Addr)
	done := issueC + uint64(lat)
	if fd, ok := p.lineFill[in.Addr>>6]; ok {
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

func (p *refPipeline) executeStore(seq uint64, in *trace.Inst, issueC uint64) {
	word := in.Addr >> 3
	p.lastStore[word] = storeRecord{
		seq:      seq,
		pc:       in.PC,
		execDone: issueC + 1,
		prevWord: p.simMem.Read(in.Addr&^uint64(7), 8),
	}
	p.simMem.Write(in.Addr, in.Size, in.Value)
	p.hier.DataAccess(in.PC, in.Addr)
}

func (p *refPipeline) probeRead(addr uint64, size uint8, loadSeq, probeC uint64) uint64 {
	word := addr >> 3
	if ls, ok := p.lastStore[word]; ok && ls.seq < loadSeq && ls.execDone > probeC {
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
	return p.simMem.Read(addr, size)
}

func (p *refPipeline) predictBranch(in *trace.Inst) bool {
	mispred := false
	switch in.Op {
	case trace.OpBranch:
		predTaken := p.tage.Predict(in.PC, p.hist.Global)
		p.tage.Update(in.PC, p.hist.Global, in.Taken)
		mispred = predTaken != in.Taken
		p.hist.Update(in.PC, in.Taken)
	case trace.OpJump:
		p.hist.Update(in.PC, true)
	case trace.OpCall:
		p.ras.Push(in.PC + 4)
		p.hist.Update(in.PC, true)
	case trace.OpRet:
		mispred = p.ras.Pop() != in.Target
		p.hist.Update(in.PC, true)
	case trace.OpIndirect:
		predTarget := p.ittage.Predict(in.PC, p.hist.Global)
		p.ittage.Update(in.PC, p.hist.Global, in.Target)
		mispred = predTarget != in.Target
		p.hist.Update(in.PC, true)
	}
	return mispred
}

func (p *refPipeline) applyTrains(c uint64) {
	for {
		t, ok := p.pending.peek()
		if !ok || t.trainC > c {
			return
		}
		p.trainOne(p.pending.pop())
	}
}

func (p *refPipeline) trainOne(t pendingTrain) {
	if n := p.inflightPC[t.outcome.PC]; n <= 1 {
		delete(p.inflightPC, t.outcome.PC)
	} else {
		p.inflightPC[t.outcome.PC] = n - 1
	}
	resolve := func(addr uint64, size uint8) (uint64, bool) {
		if !p.hier.L1D.Peek(addr) {
			return 0, false
		}
		return p.probeRead(addr, size, t.specSeq, t.probeC), true
	}
	p.engine.Train(t.outcome, t.rec, resolve)
}

func (p *refPipeline) paqAdmit(fc uint64) bool {
	if p.cfg.PAQDepth <= 0 {
		return true
	}
	for p.paqHead < len(p.paqQueue) && p.paqQueue[p.paqHead] <= fc {
		p.paqHead++
	}
	if p.paqHead == len(p.paqQueue) {
		p.paqQueue = p.paqQueue[:0]
		p.paqHead = 0
	}
	return len(p.paqQueue)-p.paqHead < p.cfg.PAQDepth
}

func (p *refPipeline) paqRecord(done uint64) {
	if p.cfg.PAQDepth <= 0 {
		return
	}
	if n := len(p.paqQueue); n > p.paqHead && p.paqQueue[n-1] > done {
		done = p.paqQueue[n-1]
	}
	p.paqQueue = append(p.paqQueue, done)
}

func (p *refPipeline) allocIssue(start uint64, isLS bool) uint64 {
	for c := start; ; c++ {
		if p.laneUse[c] >= p.cfg.IssueWidth {
			continue
		}
		if isLS && p.lsUse[c] >= p.cfg.LSLanes {
			continue
		}
		p.laneUse[c]++
		if isLS {
			p.lsUse[c]++
		}
		return c
	}
}

func (p *refPipeline) allocLSLane(start uint64) uint64 {
	for c := start; ; c++ {
		if p.paqUse[c] < p.cfg.LSLanes {
			p.paqUse[c]++
			return c
		}
	}
}

func (p *refPipeline) ringAt(seq uint64) *slotTiming {
	s := &p.ring[seq%refRingSize]
	if s.seq != seq {
		return nil
	}
	return s
}

func (p *refPipeline) prune() {
	limit := p.fetchCycle
	for c := range p.laneUse {
		if c < limit {
			delete(p.laneUse, c)
		}
	}
	for c := range p.lsUse {
		if c < limit {
			delete(p.lsUse, c)
		}
	}
	for c := range p.paqUse {
		if c < limit {
			delete(p.paqUse, c)
		}
	}
	for line, fd := range p.lineFill {
		if fd < limit {
			delete(p.lineFill, line)
		}
	}
}

// refTrainQueue is the by-value training FIFO the pipeline used before
// trainQueue began filling and draining its records in place.
type refTrainQueue struct {
	q    []pendingTrain
	head int
}

func (t *refTrainQueue) push(p pendingTrain) {
	// In-order application: a training never becomes visible before an
	// older one, so carry the running maximum completion cycle.
	if n := len(t.q); n > t.head && t.q[n-1].trainC > p.trainC {
		p.trainC = t.q[n-1].trainC
	}
	t.q = append(t.q, p)
}

func (t *refTrainQueue) peek() (pendingTrain, bool) {
	if t.head >= len(t.q) {
		return pendingTrain{}, false
	}
	return t.q[t.head], true
}

func (t *refTrainQueue) pop() pendingTrain {
	p := t.q[t.head]
	t.q[t.head] = pendingTrain{}
	t.head++
	if t.head == len(t.q) {
		t.q = t.q[:0]
		t.head = 0
	}
	return p
}
