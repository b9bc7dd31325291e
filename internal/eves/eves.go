// Package eves reimplements the EVES predictor — winner of the first
// Championship Value Prediction (CVP-1) — as the paper's comparison
// baseline (Section V-G). EVES combines:
//
//   - E-VTAGE: a tagged-geometric value predictor (an enhanced VTAGE)
//     with an untagged PC-indexed base table, and
//   - E-Stride: a stride *value* predictor that accounts for the number
//     of in-flight occurrences of the load.
//
// Both components predict values directly (no data cache probing), so
// EVES cannot exploit address-predictable loads whose values change —
// the structural gap the composite's SAP/CAP components fill.
package eves

import "repro/internal/core"

// Config sizes the predictor. Budgets follow the paper's comparison
// points: 8KB, 32KB, and effectively infinite.
type Config struct {
	BudgetKB int // <= 0 means "infinite" (limit-study tables)
	Seed     uint64
}

const (
	// Storage accounting (bits/entry), following the CVP-1 write-up's
	// ballpark: E-VTAGE entries carry a 64-bit value, tag, confidence
	// and usefulness; E-Stride entries carry last value, stride and
	// confidence.
	vtageTaggedBits = 64 + 13 + 3 + 1
	vtageBaseBits   = 64 + 3
	estrideBits     = 64 + 20 + 3 + 13

	numTagged = 6
)

// historyLens are E-VTAGE's geometric history lengths.
var historyLens = [numTagged]uint{2, 5, 11, 17, 27, 40}

type vtageEntry struct {
	valid  bool
	tag    uint16
	value  uint64
	conf   uint8
	useful uint8
}

type baseEntry struct {
	value uint64
	conf  uint8
	valid bool
}

type strideEntry struct {
	valid       bool
	tag         uint16
	lastValue   uint64
	stride      int64
	strideValid bool
	conf        uint8
}

// EVES is the full predictor. It implements the pipeline's Engine
// interface (Probe/Train/Instret) so it can be plugged into the core
// model directly.
type EVES struct {
	cfg Config

	base     []baseEntry
	baseMask uint64
	tagged   [numTagged][]vtageEntry
	tagMask  uint64

	stride     []strideEntry
	strideMask uint64

	// Per-load record ring: Probe hands the pipeline a handle into it,
	// Train dereferences the handle (see cpu.Engine's record contract).
	recs    []lookup
	recNext uint64

	rng *core.XorShift64
}

// recRingSize mirrors cpu.RecRingSize (not imported, to keep this
// package's dependency on the pipeline one-directional): records must
// outlive the pipeline's training backlog, bounded by the ROB.
const recRingSize = 4096

// vtage confidence threshold (saturating 3-bit counter, probabilistic
// increments giving a high effective confidence).
const vtageConfMax = 7

// strideConfMax is E-Stride's confidence ceiling.
const strideConfMax = 7

// New builds an EVES predictor with the given budget.
func New(cfg Config) *EVES {
	e := &EVES{cfg: cfg, rng: core.NewXorShift64(core.SplitMix64(cfg.Seed ^ 0xE7E5))}
	var baseEntries, taggedEntries, strideEntries int
	if cfg.BudgetKB <= 0 {
		baseEntries, taggedEntries, strideEntries = 1<<20, 1<<18, 1<<20
	} else {
		bits := cfg.BudgetKB * 1024 * 8
		// Budget split: half to the tagged tables, a quarter to the
		// base table, a quarter to E-Stride.
		taggedEntries = pow2Floor(bits / 2 / numTagged / vtageTaggedBits)
		baseEntries = pow2Floor(bits / 4 / vtageBaseBits)
		strideEntries = pow2Floor(bits / 4 / estrideBits)
	}
	e.base = make([]baseEntry, baseEntries)
	e.baseMask = uint64(baseEntries - 1)
	for i := range e.tagged {
		e.tagged[i] = make([]vtageEntry, taggedEntries)
	}
	e.tagMask = uint64(taggedEntries - 1)
	e.stride = make([]strideEntry, strideEntries)
	e.strideMask = uint64(strideEntries - 1)
	e.recs = make([]lookup, recRingSize)
	return e
}

func pow2Floor(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// StorageKB reports the configured hardware budget.
func (e *EVES) StorageKB() float64 {
	bits := len(e.base)*vtageBaseBits + len(e.stride)*estrideBits
	for i := range e.tagged {
		bits += len(e.tagged[i]) * vtageTaggedBits
	}
	return float64(bits) / 8 / 1024
}

func mix(words ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h ^= w
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

func (e *EVES) taggedIndex(i int, pc, hist uint64) (int, uint16) {
	sample := hist & ((uint64(1) << historyLens[i]) - 1)
	h := mix(pc>>2, sample, uint64(i))
	return int(h & e.tagMask), uint16((h >> 40) & 0x1FFF)
}

// lookup is the per-load record carried from Probe to Train.
type lookup struct {
	provider    int // tagged table index, -1 = base, -2 = none
	providerIdx int
	providerTag uint16
	basePred    bool
	stridePred  bool
	strideVal   uint64
	vtageVal    uint64
	vtageConf   bool
	used        bool
	usedVal     uint64
}

// Probe implements the Engine Probe hook.
func (e *EVES) Probe(p core.Probe) (uint64, core.Prediction, bool) {
	h := e.recNext
	e.recNext++
	lk := &e.recs[h&(recRingSize-1)]
	*lk = lookup{provider: -2}

	// E-VTAGE: longest-history tagged hit, else base table.
	for i := numTagged - 1; i >= 0; i-- {
		idx, tag := e.taggedIndex(i, p.PC, p.BranchHist)
		ent := &e.tagged[i][idx]
		if ent.valid && ent.tag == tag {
			lk.provider = i
			lk.providerIdx = idx
			lk.providerTag = tag
			lk.vtageVal = ent.value
			lk.vtageConf = ent.conf >= vtageConfMax
			break
		}
	}
	if lk.provider == -2 {
		b := &e.base[(p.PC>>2)&e.baseMask]
		if b.valid {
			lk.provider = -1
			lk.vtageVal = b.value
			lk.vtageConf = b.conf >= vtageConfMax
		}
	}

	// E-Stride.
	sIdx := (p.PC >> 2) & e.strideMask
	sTag := uint16(mix(p.PC>>2) & 0x1FFF)
	s := &e.stride[sIdx]
	if s.valid && s.tag == sTag && s.strideValid && s.conf >= strideConfMax {
		lk.stridePred = true
		lk.strideVal = s.lastValue + uint64(int64(p.Inflight+1)*s.stride)
	}

	// Selection: E-VTAGE first (it subsumes last-value behaviour),
	// E-Stride for strided values.
	switch {
	case lk.vtageConf:
		lk.used = true
		lk.usedVal = lk.vtageVal
	case lk.stridePred:
		lk.used = true
		lk.usedVal = lk.strideVal
	}
	if !lk.used {
		return h, core.Prediction{}, false
	}
	return h, core.Prediction{
		Kind:   core.KindValue,
		Source: core.CompLVP, // value-kind; component tag unused by the pipeline
		Value:  lk.usedVal,
	}, true
}

// Train implements the Engine Train hook.
func (e *EVES) Train(o core.Outcome, rec uint64, _ core.AddrResolver) {
	e.trainVTAGE(o, &e.recs[rec&(recRingSize-1)])
	e.trainStride(o)
}

func (e *EVES) trainVTAGE(o core.Outcome, lk *lookup) {
	// Update the provider (or base) entry.
	mispredictedConf := false
	if lk != nil && lk.provider >= 0 {
		ent := &e.tagged[lk.provider][lk.providerIdx]
		if ent.valid && ent.tag == lk.providerTag {
			if ent.value == o.Value {
				if ent.conf < vtageConfMax && e.rng.Chance(confProb(ent.conf)) {
					ent.conf++
				}
				ent.useful = 1
			} else {
				mispredictedConf = lk.vtageConf
				if ent.conf > 0 {
					ent.conf = 0
				} else {
					ent.value = o.Value
					ent.useful = 0
				}
			}
		}
	} else {
		b := &e.base[(o.PC>>2)&e.baseMask]
		if !b.valid {
			*b = baseEntry{value: o.Value, valid: true}
		} else if b.value == o.Value {
			if b.conf < vtageConfMax && e.rng.Chance(confProb(b.conf)) {
				b.conf++
			}
		} else {
			mispredictedConf = lk != nil && lk.provider == -1 && lk.vtageConf
			b.value = o.Value
			b.conf = 0
		}
	}

	// Allocate in a longer-history table when the prediction was wrong
	// (or there was no provider at all).
	wrong := lk == nil || lk.provider == -2 ||
		(lk.provider >= -1 && lk.vtageVal != o.Value)
	if !wrong && !mispredictedConf {
		return
	}
	start := 0
	if lk != nil && lk.provider >= 0 {
		start = lk.provider + 1
	}
	for i := start; i < numTagged; i++ {
		idx, tag := e.taggedIndex(i, o.PC, o.BranchHist)
		ent := &e.tagged[i][idx]
		if !ent.valid || ent.useful == 0 {
			*ent = vtageEntry{valid: true, tag: tag, value: o.Value}
			break
		}
		if e.rng.Chance(4) {
			ent.useful = 0
		}
	}
}

func (e *EVES) trainStride(o core.Outcome) {
	sIdx := (o.PC >> 2) & e.strideMask
	sTag := uint16(mix(o.PC>>2) & 0x1FFF)
	s := &e.stride[sIdx]
	if !s.valid || s.tag != sTag {
		*s = strideEntry{valid: true, tag: sTag, lastValue: o.Value}
		return
	}
	delta := int64(o.Value) - int64(s.lastValue)
	const strideLimit = 1 << 19
	fits := delta > -strideLimit && delta < strideLimit
	switch {
	case fits && s.strideValid && delta == s.stride:
		if s.conf < strideConfMax && e.rng.Chance(confProb(s.conf)) {
			s.conf++
		}
	case fits:
		s.stride = delta
		s.strideValid = true
		s.conf = 0
	default:
		s.strideValid = false
		s.conf = 0
	}
	s.lastValue = o.Value
}

// confProb returns the FPC increment denominator for confidence level c
// (an exponential ramp toward high effective confidence, as EVES uses
// probabilistic confidence updates).
func confProb(c uint8) uint32 {
	probs := [...]uint32{1, 1, 2, 4, 8, 16, 32}
	if int(c) < len(probs) {
		return probs[c]
	}
	return 32
}

// Instret implements the Engine epoch hook (EVES has no epochs).
func (e *EVES) Instret(uint64) {}

// ValueOnly reports that EVES never reaches the memory hierarchy: it
// predicts values only (core.KindValue), and Train ignores the address
// resolver (see cpu.ValueOnlyEngine).
func (e *EVES) ValueOnly() bool { return true }

// ResetState clears all predictor state.
func (e *EVES) ResetState() {
	clear(e.base)
	for i := range e.tagged {
		clear(e.tagged[i])
	}
	clear(e.stride)
	e.rng.Reset()
}
