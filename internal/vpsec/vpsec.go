// Package vpsec implements the fault-attack countermeasure the paper
// cites in footnote 4 (Sheikh, Cammarota & Ruan, HOST 2018): when a
// load's value may have been corrupted by a hardware fault attack, the
// trust model can be *reversed* — a value on which multiple
// independently-trained, highly-confident predictors agree is trusted
// over the value the (possibly faulted) load returned.
//
// The detector consumes the composite predictor's per-load Lookup: if
// at least Quorum confident value predictions agree with each other but
// disagree with the loaded value, and outnumber the predictions that
// agree with it, the load is flagged as faulted and the agreed value
// offered as the correction. Address predictions resolve through the
// cache probe, so a fault on the load's datapath (not the cache array)
// leaves them usable as independent witnesses.
package vpsec

import "repro/internal/core"

// Config parameterizes the detector.
type Config struct {
	// Quorum is the number of agreeing confident predictions required
	// to overrule a loaded value (2 in the VPsec design: a single
	// predictor is not trusted against the datapath).
	Quorum int
}

// DefaultConfig returns the VPsec quorum of two witnesses.
func DefaultConfig() Config { return Config{Quorum: 2} }

// Verdict is the detector's decision for one load.
type Verdict struct {
	// Faulted reports that the loaded value is untrusted: a quorum of
	// predictors agreed on a different value.
	Faulted bool

	// Corrected is the quorum's value, valid when Faulted.
	Corrected uint64

	// Witnesses is the number of confident predictions that voted for
	// Corrected.
	Witnesses int
}

// Detector accumulates detection statistics.
type Detector struct {
	cfg   Config
	stats Stats
}

// Stats counts detector outcomes against ground truth (the injector
// knows which loads it faulted).
type Stats struct {
	Checked        uint64 // loads examined
	FaultsInjected uint64
	Detected       uint64 // injected faults flagged
	Corrected      uint64 // detected faults whose correction was exact
	Missed         uint64 // injected faults not flagged
	FalsePositives uint64 // clean loads flagged
}

// DetectionRate returns detected/injected.
func (s Stats) DetectionRate() float64 {
	if s.FaultsInjected == 0 {
		return 1
	}
	return float64(s.Detected) / float64(s.FaultsInjected)
}

// FalsePositiveRate returns false positives per checked clean load.
func (s Stats) FalsePositiveRate() float64 {
	clean := s.Checked - s.FaultsInjected
	if clean == 0 {
		return 0
	}
	return float64(s.FalsePositives) / float64(clean)
}

// New builds a detector.
func New(cfg Config) *Detector {
	if cfg.Quorum < 2 {
		cfg.Quorum = 2
	}
	return &Detector{cfg: cfg}
}

// Check renders a verdict for one load: lk is the composite's lookup at
// fetch, observed the (possibly faulted) value the load returned, and
// resolve reads the cache for address predictions.
func (d *Detector) Check(lk *core.Lookup, observed uint64, size uint8, resolve core.AddrResolver) Verdict {
	if lk == nil {
		return Verdict{}
	}
	// Tally the speculative values of every confident component, in
	// component order, so that ties break the same way on every run.
	var vals [core.NumComponents]uint64
	var counts [core.NumComponents]int
	nv := 0
	for comp := core.Component(0); comp < core.NumComponents; comp++ {
		if !lk.Confident.Has(comp) {
			continue
		}
		pr := lk.Preds[comp]
		var v uint64
		switch pr.Kind {
		case core.KindValue:
			v = pr.Value
		case core.KindAddress:
			if resolve == nil {
				continue
			}
			var ok bool
			if v, ok = resolve(pr.Addr, size); !ok {
				continue
			}
		default:
			continue
		}
		i := 0
		for i < nv && vals[i] != v {
			i++
		}
		if i == nv {
			vals[nv] = v
			nv++
		}
		counts[i]++
	}
	// The loaded value wins a tie: a quorum that agrees with it
	// corroborates it. A tie between two other values goes to the one
	// voted first.
	observedVotes, best, n := 0, uint64(0), 0
	for i := 0; i < nv; i++ {
		switch {
		case vals[i] == observed:
			observedVotes = counts[i]
		case counts[i] > n:
			best, n = vals[i], counts[i]
		}
	}
	if n >= d.cfg.Quorum && n > observedVotes {
		return Verdict{Faulted: true, Corrected: best, Witnesses: n}
	}
	return Verdict{}
}

// Record scores a verdict against ground truth.
func (d *Detector) Record(v Verdict, injected bool, trueValue uint64) {
	d.stats.Checked++
	if injected {
		d.stats.FaultsInjected++
		if v.Faulted {
			d.stats.Detected++
			if v.Corrected == trueValue {
				d.stats.Corrected++
			}
		} else {
			d.stats.Missed++
		}
		return
	}
	if v.Faulted {
		d.stats.FalsePositives++
	}
}

// Stats returns a snapshot of the counters.
func (d *Detector) Stats() Stats { return d.stats }

// Injector flips bits in load values at a configured rate, providing
// the ground truth the detector is scored against. It models a
// fault-injection attack on the load datapath.
type Injector struct {
	rng  *core.XorShift64
	rate uint32 // 1-in-rate loads faulted; 0 disables
}

// NewInjector builds an injector faulting one in rate loads.
func NewInjector(rate uint32, seed uint64) *Injector {
	return &Injector{rng: core.NewXorShift64(seed | 1), rate: rate}
}

// Corrupt possibly flips a random bit of v, reporting whether it did.
func (i *Injector) Corrupt(v uint64) (uint64, bool) {
	if i.rate == 0 || !i.rng.Chance(i.rate) {
		return v, false
	}
	bit := uint(i.rng.Intn(64))
	return v ^ (1 << bit), true
}
