package mem

// TLBConfig describes the translation lookaside buffer (Table III:
// 512-entry, 8-way set-associative).
type TLBConfig struct {
	Entries     int
	Ways        int
	PageBytes   int
	WalkLatency int // page-walk penalty on a miss, in cycles
}

// DefaultTLBConfig returns the baseline core's TLB parameters.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 512, Ways: 8, PageBytes: 4096, WalkLatency: 24}
}

// tlbEntry is valid when its gen matches the TLB's current generation
// (same constant-time-flush scheme as cacheLine).
type tlbEntry struct {
	gen     uint64
	tag     uint64
	lastUse uint64
}

// TLB is a set-associative translation lookaside buffer. As with the
// caches, only residency and latency are modeled; the simulator uses
// virtual addresses throughout. Entries are stored flat (set-major).
type TLB struct {
	cfg      TLBConfig
	entries  []tlbEntry // nSets × Ways, set-major
	ways     int
	setMask  uint64
	shift    uint
	tagShift uint
	gen      uint64
	clock    uint64
	stats    CacheStats

	// Last-hit memo (same exact-replay scheme as Cache.Lookup's): only
	// the miss-install path mutates entries, so it is the only
	// invalidation point besides Flush.
	memoPage  uint64
	memoEntry *tlbEntry
}

// NewTLB builds a TLB from cfg.
func NewTLB(cfg TLBConfig) *TLB {
	nSets := cfg.Entries / cfg.Ways
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic("mem: TLB set count must be a positive power of two")
	}
	shift := uint(0)
	for (1 << shift) < cfg.PageBytes {
		shift++
	}
	return &TLB{
		cfg:      cfg,
		entries:  make([]tlbEntry, nSets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(nSets - 1),
		shift:    shift,
		tagShift: uint(len64(uint64(nSets - 1))),
		gen:      1, // zero-valued entries are invalid
	}
}

// Stats returns hit/miss counters.
func (t *TLB) Stats() CacheStats { return t.stats }

// Access translates addr: it returns the added latency (zero on a hit,
// the walk penalty on a miss) and installs the translation.
func (t *TLB) Access(addr uint64) int {
	if t.walk(addr) {
		return t.cfg.WalkLatency
	}
	return 0
}

// walk translates addr, installing the translation, and reports whether
// it missed.
func (t *TLB) walk(addr uint64) bool {
	t.clock++
	page := addr >> t.shift
	if page == t.memoPage && t.memoEntry != nil {
		t.memoEntry.lastUse = t.clock
		t.stats.Hits++
		return false
	}
	base := int(page&t.setMask) * t.ways
	set := t.entries[base : base+t.ways]
	tag := page >> t.tagShift
	victim := 0
	for w := range set {
		e := &set[w]
		if e.gen == t.gen && e.tag == tag {
			e.lastUse = t.clock
			t.stats.Hits++
			t.memoPage, t.memoEntry = page, e
			return false
		}
		if e.gen != t.gen {
			victim = w
		} else if set[victim].gen == t.gen && e.lastUse < set[victim].lastUse {
			victim = w
		}
	}
	t.stats.Misses++
	if set[victim].gen == t.gen {
		t.stats.Evictions++
	}
	set[victim] = tlbEntry{gen: t.gen, tag: tag, lastUse: t.clock}
	t.stats.Fills++
	t.memoEntry = nil // the victim may have been the memoized entry
	return true
}

// Flush invalidates all translations (constant-time generation bump).
func (t *TLB) Flush() {
	t.gen++
	t.memoEntry = nil
}

// Reset flushes the TLB and zeroes its statistics, restoring the
// just-constructed state.
func (t *TLB) Reset() {
	t.Flush()
	t.clock = 0
	t.stats = CacheStats{}
}

func len64(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}
