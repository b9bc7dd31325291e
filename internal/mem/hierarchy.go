package mem

// HierarchyConfig mirrors the paper's Table III memory system.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 CacheConfig
	TLB              TLBConfig
	MemLatency       int // main-memory access latency in cycles
	PrefetchEntries  int
	PrefetchDegree   int
	PrefetchEnabled  bool
}

// DefaultHierarchyConfig returns the baseline core's memory system:
// split 64KB 4-way L1s (1-cycle I / 2-cycle D), a 512KB 8-way private
// L2 at 16 cycles, an 8MB 16-way shared L3 at 32 cycles, 200-cycle
// memory, and stride-based prefetching.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:             CacheConfig{Name: "L1I", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Latency: 1},
		L1D:             CacheConfig{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L2:              CacheConfig{Name: "L2", SizeBytes: 512 << 10, LineBytes: 128, Ways: 8, Latency: 16},
		L3:              CacheConfig{Name: "L3", SizeBytes: 8 << 20, LineBytes: 128, Ways: 16, Latency: 32},
		TLB:             DefaultTLBConfig(),
		MemLatency:      200,
		PrefetchEntries: 64,
		PrefetchDegree:  4,
		PrefetchEnabled: true,
	}
}

// Served says how the hierarchy served one access: the level that held
// the line and, for a data access, whether the TLB walked. It fits in a
// byte, so a run's accesses can be recorded and replayed;
// DataLatency and InstLatency turn one back into cycles.
type Served uint8

// The levels, in the order an access walks them. ServedL1 is the L1D
// for a data access and the L1I for an instruction fetch.
const (
	ServedL1 Served = iota
	ServedL2
	ServedL3
	ServedMem

	// ServedWalk marks a data access whose translation missed the TLB.
	ServedWalk Served = 4
)

// HierarchyStats is a snapshot of every counter in the hierarchy.
type HierarchyStats struct {
	L1I, L1D, L2, L3, TLB CacheStats
	Prefetch              PrefetchStats
}

// Hierarchy ties the cache levels, TLB and prefetcher together and
// answers latency queries for the pipeline model.
type Hierarchy struct {
	cfg      HierarchyConfig
	L1I      *Cache
	L1D      *Cache
	L2       *Cache
	L3       *Cache
	TLB      *TLB
	Prefetch *StridePrefetcher

	dataLat [8]int // cycles of a data access, by Served
	instLat [4]int // cycles of an instruction fetch, by level
}

// NewHierarchy builds the memory system from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		L1I: NewCache(cfg.L1I),
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
		L3:  NewCache(cfg.L3),
		TLB: NewTLB(cfg.TLB),
	}
	if cfg.PrefetchEnabled {
		h.Prefetch = NewStridePrefetcher(cfg.PrefetchEntries, cfg.PrefetchDegree)
	}
	levels := [4]int{cfg.L1D.Latency, cfg.L2.Latency, cfg.L3.Latency, cfg.MemLatency}
	h.instLat = levels
	h.instLat[ServedL1] = cfg.L1I.Latency
	for s := range h.dataLat {
		h.dataLat[s] = levels[s&3]
		if Served(s)&ServedWalk != 0 {
			h.dataLat[s] += cfg.TLB.WalkLatency
		}
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// DataAccess performs a demand data access for the load/store at pc
// touching addr. It returns the total access latency in cycles,
// including any TLB walk, and trains the prefetcher.
func (h *Hierarchy) DataAccess(pc, addr uint64) int {
	return h.DataLatency(h.Data(pc, addr))
}

// Data is DataAccess reporting how the access was served instead of
// its latency.
func (h *Hierarchy) Data(pc, addr uint64) Served {
	s := h.dataFillPath(addr)
	if h.TLB.walk(addr) {
		s |= ServedWalk
	}
	if h.Prefetch != nil {
		for _, pfAddr := range h.Prefetch.Observe(pc, addr) {
			h.fillQuiet(pfAddr)
		}
	}
	return s
}

// DataLatency returns the cycles of a data access served as s.
func (h *Hierarchy) DataLatency(s Served) int { return h.dataLat[s&7] }

// dataFillPath walks L1D→L2→L3→memory, filling on the way back, and
// returns the level that serviced the access.
func (h *Hierarchy) dataFillPath(addr uint64) Served {
	if h.L1D.Lookup(addr) {
		return ServedL1
	}
	if h.L2.Lookup(addr) {
		h.L1D.Fill(addr)
		return ServedL2
	}
	if h.L3.Lookup(addr) {
		h.L2.Fill(addr)
		h.L1D.Fill(addr)
		return ServedL3
	}
	h.L3.Fill(addr)
	h.L2.Fill(addr)
	h.L1D.Fill(addr)
	return ServedMem
}

// fillQuiet installs a line for a prefetch without touching demand
// hit/miss statistics beyond the fills themselves.
func (h *Hierarchy) fillQuiet(addr uint64) {
	if !h.L1D.Peek(addr) {
		h.L1D.Fill(addr)
	}
	if !h.L2.Peek(addr) {
		h.L2.Fill(addr)
	}
}

// InstAccess performs an instruction fetch access and returns its
// latency. Instruction fetch misses walk the same L2/L3/memory path.
func (h *Hierarchy) InstAccess(pc uint64) int {
	return h.InstLatency(h.Inst(pc))
}

// Inst is InstAccess reporting the level that served the fetch instead
// of its latency.
func (h *Hierarchy) Inst(pc uint64) Served {
	if h.L1I.Lookup(pc) {
		return ServedL1
	}
	if h.L2.Lookup(pc) {
		h.L1I.Fill(pc)
		return ServedL2
	}
	if h.L3.Lookup(pc) {
		h.L2.Fill(pc)
		h.L1I.Fill(pc)
		return ServedL3
	}
	h.L3.Fill(pc)
	h.L2.Fill(pc)
	h.L1I.Fill(pc)
	return ServedMem
}

// InstLatency returns the cycles of an instruction fetch served at
// level s.
func (h *Hierarchy) InstLatency(s Served) int { return h.instLat[s&3] }

// ProbeD models the Predicted Address Queue's data-cache probe (paper
// Figure 1, step 3): it reports whether the predicted address hits in
// the L1 data cache and the probe latency. The probe never allocates;
// on a miss no speculative value is produced, and the pipeline issues
// the optional step-5 prefetch through PrefetchAccess when
// cpu.Config.PAQPrefetchOnMiss is set (the default here; the paper
// disables it, see DESIGN.md §5a.1).
func (h *Hierarchy) ProbeD(addr uint64) (latency int, hit bool) {
	if h.L1D.Peek(addr) {
		return h.cfg.L1D.Latency, true
	}
	return h.cfg.L1D.Latency, false
}

// PrefetchAccess services a prefetch generated by a PAQ probe miss
// (paper Figure 1, step 5): it walks the hierarchy, fills the line
// toward L1, and returns the latency until the data arrives. Unlike
// DataAccess it does not train the stride prefetcher (it is not a
// demand access).
func (h *Hierarchy) PrefetchAccess(addr uint64) int {
	return h.DataLatency(h.dataFillPath(addr))
}

// Flush invalidates all cached state (used between simulation runs).
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.L3.Flush()
	h.TLB.Flush()
	if h.Prefetch != nil {
		h.Prefetch.Reset()
	}
}

// Reset returns the hierarchy to its just-constructed state: all cached
// lines invalidated and every statistics counter zeroed (Flush leaves
// the counters running). Pooled pipelines call this between runs.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.TLB.Reset()
	if h.Prefetch != nil {
		h.Prefetch.Reset()
	}
}

// Stats returns a snapshot of the hierarchy's counters.
func (h *Hierarchy) Stats() HierarchyStats {
	s := HierarchyStats{
		L1I: h.L1I.stats, L1D: h.L1D.stats, L2: h.L2.stats, L3: h.L3.stats,
		TLB: h.TLB.stats,
	}
	if h.Prefetch != nil {
		s.Prefetch = h.Prefetch.stats
	}
	return s
}

// SetStats overwrites the hierarchy's counters with s and leaves its
// cached lines as they are. A run that replays recorded accesses
// instead of performing them installs the counters the recorded run
// ended with, so the hierarchy reads as it would after the live run.
func (h *Hierarchy) SetStats(s HierarchyStats) {
	h.L1I.stats, h.L1D.stats, h.L2.stats, h.L3.stats = s.L1I, s.L1D, s.L2, s.L3
	h.TLB.stats = s.TLB
	if h.Prefetch != nil {
		h.Prefetch.stats = s.Prefetch
	}
}
