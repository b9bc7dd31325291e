// Package branch implements the baseline core's branch prediction
// (paper Table III): a TAGE conditional branch predictor, an ITTAGE
// indirect target predictor, a 16-entry return address stack, and the
// global/path history registers the context-aware value predictors
// consume.
package branch

import "slices"

// TAGEConfig describes a TAGE predictor.
type TAGEConfig struct {
	BaseEntries   int    // bimodal base predictor entries
	TaggedEntries int    // entries per tagged table
	TagBits       uint   // partial tag width in tagged tables
	HistoryLens   []uint // geometric global-history lengths, shortest first
	UseAltBits    uint   // width of the use-alt-on-newly-allocated counter
}

// Equal reports whether two configurations describe the same predictor
// (history-length slices compared by content). Allocation-free, for
// hot-path callers that would otherwise reach for reflect.DeepEqual.
func (c TAGEConfig) Equal(o TAGEConfig) bool {
	return c.BaseEntries == o.BaseEntries &&
		c.TaggedEntries == o.TaggedEntries &&
		c.TagBits == o.TagBits &&
		c.UseAltBits == o.UseAltBits &&
		slices.Equal(c.HistoryLens, o.HistoryLens)
}

// DefaultTAGEConfig approximates the paper's "state-of-art 32KB TAGE
// predictor": a 16K-entry bimodal base plus six tagged tables with
// geometric histories.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseEntries:   16384,
		TaggedEntries: 1024,
		TagBits:       11,
		HistoryLens:   []uint{5, 9, 15, 25, 44, 76},
		UseAltBits:    4,
	}
}

type tageEntry struct {
	valid  bool
	tag    uint16
	ctr    int8  // signed 3-bit counter: >= 0 predicts taken
	useful uint8 // 2-bit usefulness
}

// TAGE is a TAgged GEometric-history-length conditional branch
// predictor (Seznec). Prediction comes from the longest-history tagged
// table with a matching tag, falling back to a bimodal base table.
type TAGE struct {
	cfg    TAGEConfig
	base   []int8 // 2-bit bimodal counters
	tables [][]tageEntry
	useAlt int8
	stats  Stats

	// last prediction metadata, captured by Predict for Update
	provider    int // table index, -1 = base
	providerIdx int
	providerTag uint16
	altPred     bool
	provPred    bool
	provWeak    bool

	// Per-table index/tag caches, filled by Predict for every table it
	// visits and consumed by Update. Predict/Update alternate with
	// identical (pc, hist) — see Predict's contract — and Predict's
	// descending scan always visits every table Update's allocation and
	// decay paths touch (tables above the provider), so Update never
	// recomputes a hash.
	idxCache []int32
	tagCache []uint16
}

// Stats counts branch predictor outcomes.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
}

// Rate returns the misprediction rate.
func (s Stats) Rate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// NewTAGE builds a TAGE predictor from cfg.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if cfg.BaseEntries <= 0 || cfg.BaseEntries&(cfg.BaseEntries-1) != 0 {
		panic("branch: base entries must be a power of two")
	}
	if cfg.TaggedEntries <= 0 || cfg.TaggedEntries&(cfg.TaggedEntries-1) != 0 {
		panic("branch: tagged entries must be a power of two")
	}
	t := &TAGE{cfg: cfg, base: make([]int8, cfg.BaseEntries)}
	for range cfg.HistoryLens {
		t.tables = append(t.tables, make([]tageEntry, cfg.TaggedEntries))
	}
	t.idxCache = make([]int32, len(cfg.HistoryLens))
	t.tagCache = make([]uint16, len(cfg.HistoryLens))
	return t
}

// mixInit is the mix chain's initial state.
const mixInit = uint64(0x9E3779B97F4A7C15)

// mixRound absorbs one word into the mix chain (the splitmix64
// finalizer applied to h^w). The historical hash mix(a, b, c) is
// exactly mixRound(mixRound(mixRound(mixInit, a), b), c), so hot paths
// that hash many values sharing a common prefix (every TAGE table
// hashes the same pc, and a table's index and tag hashes share pc and
// history sample) absorb the shared words once and fork the chain,
// producing bit-identical hashes at a fraction of the rounds.
func mixRound(h, w uint64) uint64 {
	h ^= w
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// Predict returns the taken/not-taken prediction for a conditional
// branch at pc under global history hist. The provider metadata is
// retained for the next Update call; Predict/Update must alternate per
// branch with identical (pc, hist), as they do in the fetch/execute
// pipeline. Each visited table's index and tag come from one shared
// hash chain (the pc round is absorbed once, the history-sample round
// once per table) and are cached for Update — bit-identical to hashing
// (pc, sample, salt) from scratch per lookup, at under half the rounds.
func (t *TAGE) Predict(pc, hist uint64) bool {
	t.stats.Lookups++
	t.provider = -1
	baseIdx := int((pc >> 2) & uint64(t.cfg.BaseEntries-1))
	basePred := t.base[baseIdx] >= 0
	pred, alt := basePred, basePred
	found := 0
	hPC := mixRound(mixInit, pc>>2)
	idxMask := uint64(t.cfg.TaggedEntries - 1)
	tagMask := uint64(1)<<t.cfg.TagBits - 1
	for i := len(t.tables) - 1; i >= 0; i-- {
		sample := hist
		if t.cfg.HistoryLens[i] < 64 {
			sample = hist & ((uint64(1) << t.cfg.HistoryLens[i]) - 1)
		}
		hSample := mixRound(hPC, sample)
		idx := int(mixRound(hSample, uint64(i)) & idxMask)
		tag := uint16(mixRound(hSample, uint64(i)^0xABCD) & tagMask)
		t.idxCache[i], t.tagCache[i] = int32(idx), tag
		e := &t.tables[i][idx]
		if !e.valid || e.tag != tag {
			continue
		}
		found++
		if found == 1 {
			t.provider = i
			t.providerIdx = idx
			t.providerTag = tag
			pred = e.ctr >= 0
			t.provWeak = e.ctr == 0 || e.ctr == -1
		} else {
			alt = e.ctr >= 0
			break
		}
	}
	if found < 2 {
		alt = basePred
	}
	t.altPred = alt
	t.provPred = pred
	// Newly allocated entries are unreliable: optionally trust altpred.
	if t.provider >= 0 && t.provWeak && t.useAlt >= 0 {
		pred = alt
	}
	return pred
}

// Update trains the predictor with the actual outcome of the branch
// whose prediction was just produced by Predict with identical (pc,
// hist).
func (t *TAGE) Update(pc, hist uint64, taken bool) {
	finalPred := t.provPred
	if t.provider >= 0 && t.provWeak && t.useAlt >= 0 {
		finalPred = t.altPred
	}
	if finalPred != taken {
		t.stats.Mispredicts++
	}

	baseIdx := int((pc >> 2) & uint64(t.cfg.BaseEntries-1))
	if t.provider < 0 {
		t.base[baseIdx] = bump2(t.base[baseIdx], taken)
	} else {
		e := &t.tables[t.provider][t.providerIdx]
		if e.valid && e.tag == t.providerTag {
			// Track whether trusting altpred over a weak provider pays.
			if t.provWeak && t.provPred != t.altPred {
				if t.altPred == taken {
					t.useAlt = clampAdd(t.useAlt, 1, int8(1<<(t.cfg.UseAltBits-1))-1)
				} else {
					t.useAlt = clampAdd(t.useAlt, -1, int8(1<<(t.cfg.UseAltBits-1))-1)
				}
			}
			e.ctr = bump3(e.ctr, taken)
			if t.provPred == taken && t.provPred != t.altPred {
				if e.useful < 3 {
					e.useful++
				}
			}
		}
		// Provider's own counter also updates the base slowly when it
		// disagrees, keeping the base usable as altpred.
		if t.altPred != taken {
			t.base[baseIdx] = bump2(t.base[baseIdx], taken)
		}
	}

	// Allocate a longer-history entry on a misprediction. Indices and
	// tags come from Predict's per-table cache (same (pc, hist) by the
	// Predict/Update contract; every table above the provider was
	// visited and cached).
	if finalPred != taken && t.provider < len(t.tables)-1 {
		start := t.provider + 1
		allocated := false
		for i := start; i < len(t.tables); i++ {
			e := &t.tables[i][t.idxCache[i]]
			if !e.valid || e.useful == 0 {
				*e = tageEntry{valid: true, tag: t.tagCache[i]}
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness so future allocations can succeed.
			for i := start; i < len(t.tables); i++ {
				if e := &t.tables[i][t.idxCache[i]]; e.useful > 0 {
					e.useful--
				}
			}
		}
	}
}

// StatsSnapshot returns lookup/mispredict counters.
func (t *TAGE) StatsSnapshot() Stats { return t.stats }

// Reset clears all predictor state.
func (t *TAGE) Reset() {
	clear(t.base)
	for i := range t.tables {
		clear(t.tables[i])
	}
	t.useAlt = 0
	t.stats = Stats{}
	t.provider = -1
}

// bump2 saturates a 2-bit signed counter in [-2, 1].
func bump2(c int8, up bool) int8 {
	if up {
		if c < 1 {
			return c + 1
		}
		return c
	}
	if c > -2 {
		return c - 1
	}
	return c
}

// bump3 saturates a 3-bit signed counter in [-4, 3].
func bump3(c int8, up bool) int8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func clampAdd(v, d, lim int8) int8 {
	n := v + d
	if n > lim {
		return lim
	}
	if n < -lim-1 {
		return -lim - 1
	}
	return n
}
