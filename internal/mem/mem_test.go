package mem

import (
	"testing"
	"testing/quick"
)

func TestBackingReadAfterWrite(t *testing.T) {
	b := NewBacking(1)
	b.Write(0x1000, 8, 0x1122334455667788)
	if got := b.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("read = %#x", got)
	}
}

func TestBackingPartialWidths(t *testing.T) {
	b := NewBacking(1)
	b.Write(0x1000, 8, 0x1122334455667788)
	if got := b.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("4-byte read = %#x, want 0x55667788", got)
	}
	if got := b.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("upper 4-byte read = %#x, want 0x11223344", got)
	}
	if got := b.Read(0x1000, 1); got != 0x88 {
		t.Errorf("byte read = %#x, want 0x88", got)
	}
	b.Write(0x1002, 2, 0xBEEF)
	if got := b.Read(0x1000, 8); got != 0x11223344BEEF7788 {
		t.Errorf("merged read = %#x, want 0x11223344BEEF7788", got)
	}
}

func TestBackingStraddlesWords(t *testing.T) {
	b := NewBacking(1)
	b.Write(0x1006, 4, 0xAABBCCDD)
	if got := b.Read(0x1006, 4); got != 0xAABBCCDD {
		t.Errorf("straddling read = %#x", got)
	}
}

func TestBackingColdFillStableAndSeeded(t *testing.T) {
	a := NewBacking(7)
	if a.Read(0x5000, 8) != a.Read(0x5000, 8) {
		t.Error("cold fill not stable across reads")
	}
	b := NewBacking(8)
	if a.Read(0x5000, 8) == b.Read(0x5000, 8) {
		t.Error("different seeds produced identical fill (unlikely)")
	}
	c := NewBacking(7)
	if a.Read(0x5000, 8) != c.Read(0x5000, 8) {
		t.Error("same seed produced different fill")
	}
}

func TestBackingClone(t *testing.T) {
	a := NewBacking(7)
	a.Write(0x10, 8, 42)
	b := a.Clone()
	b.Write(0x10, 8, 99)
	if a.Read(0x10, 8) != 42 {
		t.Error("clone writes leaked into original")
	}
	if b.Read(0x10, 8) != 99 {
		t.Error("clone lost its own write")
	}
	if b.Read(0x7777, 8) != a.Read(0x7777, 8) {
		t.Error("clone fill differs from original")
	}
}

func TestBackingSizeClamp(t *testing.T) {
	b := NewBacking(1)
	b.Write(0x0, 0, 0xFF) // size 0 clamps to 8
	if got := b.Read(0x0, 0); got != 0xFF {
		t.Errorf("size-0 read = %#x", got)
	}
}

// Property: read(write(x)) == x for all aligned sizes.
func TestBackingWriteReadProperty(t *testing.T) {
	b := NewBacking(3)
	err := quick.Check(func(addr uint32, val uint64, szSel uint8) bool {
		size := uint8(1) << (szSel % 4)
		a := uint64(addr)
		b.Write(a, size, val)
		mask := ^uint64(0)
		if size < 8 {
			mask = (uint64(1) << (size * 8)) - 1
		}
		return b.Read(a, size) == val&mask
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1 << 12, LineBytes: 64, Ways: 4, Latency: 2})
	if c.Lookup(0x1000) {
		t.Error("hit in empty cache")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("miss after fill")
	}
	if !c.Lookup(0x1030) {
		t.Error("same line, different offset missed")
	}
	if c.Lookup(0x2000) {
		t.Error("different line hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2 sets, 64B lines → addresses with the same set bits
	// conflict after two fills.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, LineBytes: 64, Ways: 2, Latency: 1})
	a, b, d := uint64(0x0000), uint64(0x0080), uint64(0x0100) // same set (bit 6 = set)
	c.Fill(a)
	c.Fill(b)
	c.Lookup(a) // a is now MRU
	c.Fill(d)   // evicts b (LRU)
	if !c.Peek(a) {
		t.Error("MRU line evicted")
	}
	if c.Peek(b) {
		t.Error("LRU line survived")
	}
	if !c.Peek(d) {
		t.Error("filled line missing")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestCachePeekDoesNotDisturb(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, LineBytes: 64, Ways: 2, Latency: 1})
	c.Fill(0x0)
	before := c.Stats()
	c.Peek(0x0)
	c.Peek(0x4000)
	if c.Stats() != before {
		t.Error("Peek changed statistics")
	}
}

func TestCacheFillIdempotent(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, LineBytes: 64, Ways: 2, Latency: 1})
	c.Fill(0x40)
	c.Fill(0x40)
	if c.Stats().Fills != 1 {
		t.Errorf("refill counted as new fill: %d", c.Stats().Fills)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, LineBytes: 64, Ways: 2, Latency: 1})
	c.Fill(0x40)
	c.Flush()
	if c.Peek(0x40) {
		t.Error("line survived flush")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 100, LineBytes: 64, Ways: 1}, // non-power-of-two sets
		{SizeBytes: 256, LineBytes: 0, Ways: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestCacheHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 1 {
		t.Error("empty stats hit rate should be 1")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if lat := tlb.Access(0x1000); lat == 0 {
		t.Error("first access should miss and pay the walk")
	}
	if lat := tlb.Access(0x1500); lat != 0 {
		t.Error("same-page access missed")
	}
	if lat := tlb.Access(0x2000); lat == 0 {
		t.Error("new page should miss")
	}
	st := tlb.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	cfg := TLBConfig{Entries: 8, Ways: 2, PageBytes: 4096, WalkLatency: 10}
	tlb := NewTLB(cfg)
	// Touch many pages mapping to the same set to force evictions.
	for i := uint64(0); i < 64; i++ {
		tlb.Access(i * 4096 * 4) // stride of 4 sets keeps hitting set 0
	}
	if tlb.Stats().Evictions == 0 {
		t.Error("no TLB evictions under conflict pressure")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Access(0x1000)
	tlb.Flush()
	if lat := tlb.Access(0x1000); lat == 0 {
		t.Error("translation survived flush")
	}
}

func TestPrefetcherDetectsStride(t *testing.T) {
	p := NewStridePrefetcher(64, 2)
	pc := uint64(0x40)
	var out []uint64
	for i := uint64(0); i < 8; i++ {
		out = p.Observe(pc, 0x1000+i*64)
	}
	if len(out) != 2 {
		t.Fatalf("prefetches = %d, want 2", len(out))
	}
	if out[0] != 0x1000+8*64 || out[1] != 0x1000+9*64 {
		t.Errorf("prefetch addrs = %#x, %#x", out[0], out[1])
	}
}

func TestPrefetcherIgnoresIrregular(t *testing.T) {
	p := NewStridePrefetcher(64, 2)
	pc := uint64(0x40)
	addrs := []uint64{0x1000, 0x5000, 0x2000, 0x9000, 0x100, 0x7800}
	var out []uint64
	for _, a := range addrs {
		out = p.Observe(pc, a)
	}
	if len(out) != 0 {
		t.Errorf("prefetched on irregular stream: %v", out)
	}
}

func TestPrefetcherZeroStrideSilent(t *testing.T) {
	p := NewStridePrefetcher(64, 2)
	for i := 0; i < 10; i++ {
		if out := p.Observe(0x40, 0x1000); len(out) != 0 {
			t.Fatal("prefetched on zero stride")
		}
	}
}

func TestHierarchyLatencyLadder(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	addr := uint64(0x12340)
	first := h.DataAccess(0x40, addr)
	if first < cfg.MemLatency {
		t.Errorf("cold access latency %d < memory latency %d", first, cfg.MemLatency)
	}
	second := h.DataAccess(0x40, addr)
	if second != cfg.L1D.Latency {
		t.Errorf("warm access latency %d, want L1D %d", second, cfg.L1D.Latency)
	}
}

func TestHierarchyFillPropagation(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	addr := uint64(0x98765400)
	h.DataAccess(0x40, addr)
	if !h.L1D.Peek(addr) || !h.L2.Peek(addr) || !h.L3.Peek(addr) {
		t.Error("miss did not fill all levels")
	}
}

func TestHierarchyL2HitAfterL1Eviction(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	// Tiny L1 so we can evict it quickly.
	cfg.L1D = CacheConfig{Name: "L1D", SizeBytes: 128, LineBytes: 64, Ways: 1, Latency: 2}
	h := NewHierarchy(cfg)
	a := uint64(0x10000)
	h.DataAccess(0x40, a)
	h.DataAccess(0x40, a+128) // same L1 set (2 sets × 64B), evicts a
	lat := h.DataAccess(0x40, a)
	if lat != cfg.L2.Latency {
		t.Errorf("latency after L1 eviction = %d, want L2 %d", lat, cfg.L2.Latency)
	}
}

// TestHierarchyServed pins the access codes against the latencies:
// a cold access walks the TLB and misses to memory, a repeat hits the
// L1 with the translation cached, and an access's code turned back into
// cycles equals what the latency-returning call gives on a twin
// hierarchy fed the same stream, whose counters it also ends with.
func TestHierarchyServed(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h, twin := NewHierarchy(cfg), NewHierarchy(cfg)
	if s := h.Data(0x40, 0x5000); s != ServedMem|ServedWalk {
		t.Fatalf("cold access served as %d, want memory with a TLB walk", s)
	}
	if s := h.Data(0x40, 0x5000); s != ServedL1 {
		t.Fatalf("repeat access served as %d, want L1", s)
	}
	if s := h.Inst(0x400); s != ServedMem {
		t.Fatalf("cold fetch served as %d, want memory", s)
	}
	twin.DataAccess(0x40, 0x5000)
	twin.DataAccess(0x40, 0x5000)
	twin.InstAccess(0x400)
	for i := uint64(0); i < 4096; i++ {
		addr := 0x100000 + i*i*40%(1<<24)
		if got, want := h.DataLatency(h.Data(0x40+i%7*4, addr)), twin.DataAccess(0x40+i%7*4, addr); got != want {
			t.Fatalf("access %d: code reads %d cycles, DataAccess %d", i, got, want)
		}
		if got, want := h.InstLatency(h.Inst(0x400+i*16)), twin.InstAccess(0x400+i*16); got != want {
			t.Fatalf("fetch %d: code reads %d cycles, InstAccess %d", i, got, want)
		}
	}
	if h.Stats() != twin.Stats() {
		t.Fatalf("counters diverged:\n%+v\n%+v", h.Stats(), twin.Stats())
	}
	fresh := NewHierarchy(cfg)
	fresh.SetStats(h.Stats())
	if fresh.Stats() != h.Stats() || fresh.L1D.Peek(0x5000) {
		t.Fatal("SetStats did not install the counters alone")
	}
}

func TestHierarchyProbeD(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	addr := uint64(0x4440)
	if _, hit := h.ProbeD(addr); hit {
		t.Error("probe hit cold cache")
	}
	// The probe never allocates: a PAQ miss prefetches through
	// PrefetchAccess, which the pipeline calls itself.
	if h.L1D.Peek(addr) {
		t.Error("ProbeD allocated a line")
	}
	h.DataAccess(0x40, addr)
	lat, hit := h.ProbeD(addr)
	if !hit || lat != cfg.L1D.Latency {
		t.Errorf("probe after fill: hit=%v lat=%d", hit, lat)
	}
}

func TestHierarchyInstAccess(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	pc := uint64(0x400000)
	if lat := h.InstAccess(pc); lat < cfg.MemLatency {
		t.Errorf("cold fetch latency %d", lat)
	}
	if lat := h.InstAccess(pc); lat != cfg.L1I.Latency {
		t.Errorf("warm fetch latency %d, want %d", lat, cfg.L1I.Latency)
	}
}

func TestHierarchyPrefetchHidesStrideLatency(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	misses := 0
	for i := uint64(0); i < 64; i++ {
		lat := h.DataAccess(0x40, 0x100000+i*64)
		if lat > cfg.L1D.Latency {
			misses++
		}
	}
	// Without prefetching every access is a cold miss (64 distinct
	// lines); with it the tail of the stream must hit.
	if misses > 16 {
		t.Errorf("stride stream saw %d slow accesses; prefetcher ineffective", misses)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.DataAccess(0x40, 0x1234)
	h.Flush()
	if h.L1D.Peek(0x1234) {
		t.Error("L1D line survived hierarchy flush")
	}
	if h.L1D.Stats().Hits+h.L1D.Stats().Misses == 0 {
		t.Error("stats should persist across Flush (they describe the run)")
	}
}

// Property: a filled line is always resident until an eviction, for
// arbitrary addresses.
func TestCacheFillPeekProperty(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1 << 14, LineBytes: 64, Ways: 4, Latency: 1})
	err := quick.Check(func(addr uint64) bool {
		c.Fill(addr)
		return c.Peek(addr)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// Property: TLB accesses to the same page back-to-back always hit the
// second time.
func TestTLBSamePageProperty(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	err := quick.Check(func(addr uint64, off uint16) bool {
		tlb.Access(addr)
		page := addr &^ 4095
		return tlb.Access(page|uint64(off)&4095) == 0
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
