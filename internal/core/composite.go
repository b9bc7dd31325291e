package core

// Composite is the paper's composite load value predictor (Section V):
// all four component predictors train in parallel and any confident
// component may deliver a prediction, with a fixed priority when several
// are confident. Optional filters and optimizations — an accuracy
// monitor, smart training, and table fusion — refine the base design.
type Composite struct {
	comps [NumComponents]Predictor
	am    AccuracyMonitor
	smart bool
	fuse  *Fusion
	pool  *SharedPool

	stats CompositeStats
}

// CompositeConfig configures a composite predictor. A zero entry count
// omits that component entirely (used both by the heterogeneous sizing
// sweep of Table VI and to model single-component predictors for
// Figure 3).
type CompositeConfig struct {
	// Entries holds the table entry count per component, indexed by
	// Component. For CVP this is the sum across its three tables.
	Entries [NumComponents]int

	// Seed drives every probabilistic choice (FPC updates, victim
	// selection). Runs with equal seeds are bit-identical.
	Seed uint64

	// AM, when non-nil, squashes predictions from unreliable components
	// (Section V-B).
	AM AccuracyMonitor

	// SmartTraining enables the selective training policy of Section
	// V-D.
	SmartTraining bool

	// Fusion enables dynamic table fusion (Section V-E). It requires a
	// homogeneous Entries allocation.
	Fusion *FusionConfig

	// ValuePoolSlots, when positive, switches LVP and CVP to the
	// decoupled shared value array of Section III-B: their entries
	// store short slot indices into one pool of this many 64-bit
	// values. Shared-array mode is incompatible with table fusion
	// (fused ways would mix pooled and direct payload layouts).
	ValuePoolSlots int
}

// HomogeneousEntries returns a config helper: every component gets
// perComponent entries.
func HomogeneousEntries(perComponent int) [NumComponents]int {
	var e [NumComponents]int
	for i := range e {
		e[i] = perComponent
	}
	return e
}

// NewComposite builds a composite predictor from cfg.
func NewComposite(cfg CompositeConfig) *Composite {
	if cfg.ValuePoolSlots > 0 && cfg.Fusion != nil {
		panic("core: shared value arrays are incompatible with table fusion")
	}
	c := &Composite{am: cfg.AM, smart: cfg.SmartTraining}
	seed := cfg.Seed
	if cfg.ValuePoolSlots > 0 {
		c.pool = NewSharedPool(cfg.ValuePoolSlots)
	}
	if cfg.Entries[CompLVP] > 0 {
		if c.pool != nil {
			c.comps[CompLVP] = NewLVPPooled(cfg.Entries[CompLVP], SplitMix64(seed^0x11), c.pool)
		} else {
			c.comps[CompLVP] = NewLVP(cfg.Entries[CompLVP], SplitMix64(seed^0x11))
		}
	}
	if cfg.Entries[CompSAP] > 0 {
		c.comps[CompSAP] = NewSAP(cfg.Entries[CompSAP], SplitMix64(seed^0x22))
	}
	if cfg.Entries[CompCVP] > 0 {
		if c.pool != nil {
			c.comps[CompCVP] = NewCVPPooled(cfg.Entries[CompCVP], SplitMix64(seed^0x33), c.pool)
		} else {
			c.comps[CompCVP] = NewCVP(cfg.Entries[CompCVP], SplitMix64(seed^0x33))
		}
	}
	if cfg.Entries[CompCAP] > 0 {
		c.comps[CompCAP] = NewCAP(cfg.Entries[CompCAP], SplitMix64(seed^0x44))
	}
	if cfg.Fusion != nil {
		c.fuse = newFusion(*cfg.Fusion, c)
	}
	return c
}

// Pool returns the shared value array, or nil when the composite uses
// direct per-entry values.
func (c *Composite) Pool() *SharedPool { return c.pool }

// selectionOrder is the priority when multiple components are confident
// (Section V-A): value predictors before address predictors (no
// speculative cache access needed), and context-aware before
// context-agnostic within each group (for accuracy).
var selectionOrder = [NumComponents]Component{CompCVP, CompLVP, CompCAP, CompSAP}

// trainingOrder is smart training's cost heuristic (Section V-D): value
// before address, context-agnostic before context-aware.
var trainingOrder = [NumComponents]Component{CompLVP, CompCVP, CompSAP, CompCAP}

// Lookup is the result of probing all components for one fetched load.
// The pipeline carries it with the load and hands it back at validation
// and training time.
type Lookup struct {
	// Preds holds each confident component's prediction; only entries
	// for components in Confident are meaningful.
	Preds [NumComponents]Prediction

	// Confident is the set of components whose per-entry confidence
	// cleared their threshold, before any AM squash.
	Confident ComponentSet

	// Allowed is Confident minus components squashed by the accuracy
	// monitor or lent out by table fusion.
	Allowed ComponentSet

	// Chosen is the component whose prediction is delivered, valid only
	// when Used.
	Chosen Component

	// Used reports whether a prediction is delivered for this load.
	Used bool
}

// Prediction returns the delivered prediction, if any.
func (lk *Lookup) Prediction() (Prediction, bool) {
	if !lk.Used {
		return Prediction{}, false
	}
	return lk.Preds[lk.Chosen], true
}

// Probe consults every component and applies AM filtering and selection
// priority. Call it once per fetched load.
func (c *Composite) Probe(p Probe) Lookup {
	var lk Lookup
	for comp := Component(0); comp < NumComponents; comp++ {
		pred := c.comps[comp]
		if pred == nil || (c.fuse != nil && c.fuse.donated(comp)) {
			continue
		}
		pr, ok := pred.Predict(p)
		if !ok {
			continue
		}
		lk.Preds[comp] = pr
		lk.Confident.Add(comp)
		if c.am == nil || c.am.Allow(comp, p.PC) {
			lk.Allowed.Add(comp)
		}
	}
	for _, comp := range selectionOrder {
		if lk.Allowed.Has(comp) {
			lk.Chosen = comp
			lk.Used = true
			break
		}
	}
	c.stats.recordProbe(&lk)
	return lk
}

// Train updates predictor state for an executed load. lk must be the
// Lookup captured at fetch (nil for loads with no lookup, treated as an
// empty lookup), and v the Validation of its confident predictions
// (see Validate).
func (c *Composite) Train(o Outcome, lk *Lookup, v Validation) {
	var empty Lookup
	if lk == nil {
		lk = &empty
	}

	// A flush happens when the *used* prediction delivered a value that
	// turned out wrong. A used address prediction whose probe missed
	// never speculated, so it cannot flush.
	flush := lk.Used && v.Valued.Has(lk.Chosen) && !v.Correct.Has(lk.Chosen)
	if c.am != nil && v.Valued != 0 {
		// Accuracy monitors track delivered speculative values only:
		// probe misses are non-events, not mispredictions.
		c.am.Record(o.PC, v.Valued, v.Correct, flush)
	}
	if c.fuse != nil {
		c.fuse.observe(lk)
	}
	c.stats.recordTrainOutcome(lk, v, flush)

	if !c.smart || lk.Confident == 0 {
		// Train-all policy: every component observes every executed
		// load, minimizing time to a confident prediction.
		n := 0
		for comp := Component(0); comp < NumComponents; comp++ {
			if c.trainable(comp) {
				c.comps[comp].Train(o)
				n++
			}
		}
		c.stats.recordTrained(n)
		return
	}

	// Smart training (Section V-D): train every component whose
	// prediction disagreed with the outcome (to encourage eviction of
	// the bad entry), plus the lowest-cost component among those that
	// predicted consistently. Consistent-but-unchosen SAP entries are
	// invalidated: without training, the stored stride is broken
	// anyway.
	var toTrain ComponentSet
	for comp := Component(0); comp < NumComponents; comp++ {
		if lk.Confident.Has(comp) && !v.Consistent.Has(comp) {
			toTrain.Add(comp)
		}
	}
	var best Component
	haveBest := false
	for _, comp := range trainingOrder {
		if lk.Confident.Has(comp) && v.Consistent.Has(comp) {
			best = comp
			haveBest = true
			break
		}
	}
	if haveBest {
		toTrain.Add(best)
		if best != CompSAP && lk.Confident.Has(CompSAP) && v.Consistent.Has(CompSAP) && c.trainable(CompSAP) {
			c.comps[CompSAP].Invalidate(o)
			c.stats.SAPInvalidations++
		}
	}
	n := 0
	for comp := Component(0); comp < NumComponents; comp++ {
		if toTrain.Has(comp) && c.trainable(comp) {
			c.comps[comp].Train(o)
			n++
		}
	}
	c.stats.recordTrained(n)
}

// trainable reports whether a component exists and currently owns its
// storage (not lent out by fusion).
func (c *Composite) trainable(comp Component) bool {
	return c.comps[comp] != nil && (c.fuse == nil || !c.fuse.donated(comp))
}

// Instret advances retired-instruction-driven epochs (AM and fusion).
func (c *Composite) Instret(n uint64) {
	if c.am != nil {
		c.am.Instret(n)
	}
	if c.fuse != nil {
		c.fuse.instret(n)
	}
}

// Component returns the underlying component predictor, or nil when the
// configuration omits it.
func (c *Composite) Component(comp Component) Predictor { return c.comps[comp] }

// Storage sums the storage of all present components.
func (c *Composite) Storage() Storage {
	bits, entries := 0, 0
	for _, p := range c.comps {
		if p == nil {
			continue
		}
		s := p.Storage()
		entries += s.Entries
		bits += s.Bits()
	}
	if entries == 0 {
		return Storage{}
	}
	return Storage{Entries: entries, BitsPerItem: bits / entries}
}

// StorageKB returns the exact total storage in kilobytes, including
// the shared value array when present.
func (c *Composite) StorageKB() float64 {
	bits := 0
	for _, p := range c.comps {
		if p != nil {
			bits += p.Storage().Bits()
		}
	}
	if c.pool != nil {
		bits += c.pool.StorageBits()
	}
	return float64(bits) / 8 / 1024
}

// Stats returns a snapshot of the composite's counters.
func (c *Composite) Stats() CompositeStats { return c.stats }

// AM returns the attached accuracy monitor, or nil (for telemetry;
// composite behaviour is only reachable through Probe/Train).
func (c *Composite) AM() AccuracyMonitor { return c.am }

// ResetState clears all dynamic predictor, AM, and fusion state.
func (c *Composite) ResetState() {
	for _, p := range c.comps {
		if p != nil {
			p.ResetState()
		}
	}
	if c.am != nil {
		c.am.Reset()
	}
	if c.fuse != nil {
		c.fuse.reset()
	}
	c.stats = CompositeStats{}
}

// AddrResolver resolves a predicted address to the speculative value the
// pipeline would obtain from the data cache, reporting ok=false when the
// probe misses (no speculative value is produced).
type AddrResolver func(addr uint64, size uint8) (uint64, bool)

// Validation classifies each confident component's prediction for an
// executed load. The three sets answer different questions:
//
//   - Consistent: did the prediction agree with the outcome (value
//     match for value predictors, address match for address
//     predictors)? Drives smart training.
//   - Valued: did the prediction deliver a speculative value (value
//     predictions always do; address predictions only when the data
//     cache probe hits)? Only valued predictions can speculate — and
//     only they are accountable to the accuracy monitors.
//   - Correct: valued and the speculative value matched the load's
//     value. A used-but-incorrect prediction triggers a flush. Note an
//     address can be Consistent yet not Correct when a conflicting
//     store changed the data (Section III-A: "checking the address is
//     insufficient").
type Validation struct {
	Consistent ComponentSet
	Valued     ComponentSet
	Correct    ComponentSet
}

// Validate computes the Validation of every confident component in lk
// against outcome o, resolving address predictions through resolve.
func Validate(lk *Lookup, o Outcome, resolve AddrResolver) Validation {
	var v Validation
	if lk == nil {
		return v
	}
	for comp := Component(0); comp < NumComponents; comp++ {
		if !lk.Confident.Has(comp) {
			continue
		}
		pr := lk.Preds[comp]
		switch pr.Kind {
		case KindValue:
			v.Valued.Add(comp)
			if pr.Value == o.Value {
				v.Consistent.Add(comp)
				v.Correct.Add(comp)
			}
		case KindAddress:
			if pr.Addr == o.Addr&vaMask {
				v.Consistent.Add(comp)
			}
			if resolve == nil {
				break
			}
			if sv, ok := resolve(pr.Addr, o.Size); ok {
				v.Valued.Add(comp)
				if pr.Addr == o.Addr&vaMask && sv == o.Value {
					v.Correct.Add(comp)
				}
			}
		}
	}
	return v
}

// CompositeStats aggregates the composite-level counters behind Figures
// 4, 6 and 7.
type CompositeStats struct {
	// Probes is the number of fetched loads presented to the composite.
	Probes uint64

	// PredictedLoads counts loads with at least one confident component.
	PredictedLoads uint64

	// UsedPredictions counts loads where a prediction was delivered
	// (confident and not AM-squashed).
	UsedPredictions uint64

	// ConfidentHistogram[k] counts predicted loads with exactly k
	// confident components (k in 1..4; index 0 unused).
	ConfidentHistogram [NumComponents + 1]uint64

	// SoleConfident[c] counts predicted loads where component c was the
	// only confident component.
	SoleConfident [NumComponents]uint64

	// UsedBy[c] counts delivered predictions chosen from component c.
	UsedBy [NumComponents]uint64

	// CorrectBy / IncorrectBy tally per-component validation results
	// over confident predictions that delivered a speculative value
	// (used or not).
	CorrectBy   [NumComponents]uint64
	IncorrectBy [NumComponents]uint64

	// UsedMispredictions counts delivered predictions that validated
	// incorrect and triggered a flush.
	UsedMispredictions uint64

	// TrainEvents and TrainedComponents measure training work: the
	// average number of predictors updated per executed load is
	// TrainedComponents / TrainEvents (Figure 7).
	TrainEvents       uint64
	TrainedComponents uint64

	// SAPInvalidations counts smart training's SAP entry invalidations.
	SAPInvalidations uint64
}

func (s *CompositeStats) recordProbe(lk *Lookup) {
	s.Probes++
	n := lk.Confident.Count()
	if n == 0 {
		return
	}
	s.PredictedLoads++
	s.ConfidentHistogram[n]++
	if n == 1 {
		for comp := Component(0); comp < NumComponents; comp++ {
			if lk.Confident.Has(comp) {
				s.SoleConfident[comp]++
			}
		}
	}
	if lk.Used {
		s.UsedPredictions++
		s.UsedBy[lk.Chosen]++
	}
}

func (s *CompositeStats) recordTrainOutcome(lk *Lookup, v Validation, flush bool) {
	for comp := Component(0); comp < NumComponents; comp++ {
		if !lk.Confident.Has(comp) || !v.Valued.Has(comp) {
			continue
		}
		if v.Correct.Has(comp) {
			s.CorrectBy[comp]++
		} else {
			s.IncorrectBy[comp]++
		}
	}
	if flush {
		s.UsedMispredictions++
	}
}

func (s *CompositeStats) recordTrained(n int) {
	s.TrainEvents++
	s.TrainedComponents += uint64(n)
}

// Accuracy returns the fraction of delivered predictions that validated
// correct, or 1 when none were delivered.
func (s *CompositeStats) Accuracy() float64 {
	if s.UsedPredictions == 0 {
		return 1
	}
	return 1 - float64(s.UsedMispredictions)/float64(s.UsedPredictions)
}

// FusionEventsOf reports how many times table fusion engaged in c's
// lifetime (zero when fusion is disabled).
func FusionEventsOf(c *Composite) int {
	if c.fuse == nil {
		return 0
	}
	return c.fuse.FusionEvents
}
