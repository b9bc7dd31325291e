package trace

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// TestInstSize pins Inst's packed layout: four 8-byte words, then eight
// 1-byte fields, no padding. Recordings and the artifact store's
// budget scale with it.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 40: keep the 8-byte fields first", got)
	}
}

func TestWorkloadCount(t *testing.T) {
	if got := len(Workloads()); got != 85 {
		t.Errorf("workload count = %d, want 85 (paper Figure 12)", got)
	}
}

func TestWorkloadNamesUniqueAndSorted(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %q", n)
		}
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Errorf("names not sorted at %q", n)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("mcf")
	if !ok || w.Name != "mcf" || w.Profile != "pointer" {
		t.Errorf("ByName(mcf) = %+v, %v", w, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown workload")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w, _ := ByName("gcc2k")
	a := Collect(w.Build(5000), 5000)
	b := Collect(w.Build(5000), 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorRespectsLimit(t *testing.T) {
	w, _ := ByName("gzip")
	gen := w.Build(1234)
	count := 0
	var in Inst
	for gen.Next(&in) {
		count++
		if count > 1234 {
			t.Fatal("generator exceeded its instruction limit")
		}
	}
	if count != 1234 {
		t.Errorf("generated %d instructions, want 1234", count)
	}
}

func TestAllWorkloadsProduceSaneStreams(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			gen := w.Build(20000)
			loads, stores, branches, total := 0, 0, 0, 0
			var in Inst
			for gen.Next(&in) {
				total++
				switch in.Op {
				case OpLoad:
					loads++
					if in.Size == 0 {
						t.Fatal("load with zero size")
					}
				case OpStore:
					stores++
				}
				if in.IsBranch() {
					branches++
				}
			}
			if total != 20000 {
				t.Fatalf("produced %d instructions", total)
			}
			if f := float64(loads) / float64(total); f < 0.10 || f > 0.45 {
				t.Errorf("load fraction %.2f outside [0.10, 0.45]", f)
			}
			if branches == 0 {
				t.Error("no branches")
			}
		})
	}
}

func TestLoadValuesMatchMemoryImage(t *testing.T) {
	// The architectural invariant behind address prediction: replaying
	// the stream against a copy of memory (applying stores in order)
	// must reproduce every load value.
	w, _ := ByName("v8")
	gen := w.Build(20000)
	shadow := mem.NewBacking(fnv1a("v8"))
	var in Inst
	for gen.Next(&in) {
		switch in.Op {
		case OpLoad:
			if got := shadow.Read(in.Addr, in.Size); got != in.Value {
				t.Fatalf("load at %#x: trace value %#x, shadow memory %#x", in.Addr, in.Value, got)
			}
		case OpStore:
			shadow.Write(in.Addr, in.Size, in.Value)
		}
	}
}

func TestWorkloadsContainPredictionExemptAccesses(t *testing.T) {
	w, _ := ByName("perlbench")
	gen := w.Build(100000)
	flagged := 0
	var in Inst
	for gen.Next(&in) {
		if in.Op == OpLoad && in.Flags.NoPredict() {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("no atomic/exclusive loads in the stream; Section III-A exclusion untested")
	}
}

func TestListing1Shape(t *testing.T) {
	const innerN = 16
	gen := NewListing1(100000, innerN)
	var in Inst
	storeRun, loadRun := 0, 0
	loadAddrs := []uint64{}
	for gen.Next(&in) {
		switch in.Op {
		case OpStore:
			storeRun++
			if in.Value != 0 {
				t.Fatal("memset stored non-zero")
			}
		case OpLoad:
			loadRun++
			loadAddrs = append(loadAddrs, in.Addr)
			if in.Value != 0 {
				t.Fatal("inner-loop load read non-zero after memset")
			}
		}
		if loadRun == innerN {
			break
		}
	}
	if storeRun < innerN {
		t.Errorf("memset emitted %d stores, want >= %d", storeRun, innerN)
	}
	for i := 1; i < len(loadAddrs); i++ {
		if loadAddrs[i]-loadAddrs[i-1] != 4 {
			t.Errorf("inner loads not strided by element size: %#x -> %#x", loadAddrs[i-1], loadAddrs[i])
		}
	}
}

func TestListing1InnerBranchPattern(t *testing.T) {
	const innerN = 8
	gen := NewListing1(100000, innerN)
	var in Inst
	// Collect inner-loop branch outcomes: N-1 taken then 1 not-taken.
	pattern := []bool{}
	for gen.Next(&in) && len(pattern) < innerN*3 {
		if in.Op == OpBranch && in.PC > 0x40_0040 { // inner loop branch PC
			pattern = append(pattern, in.Taken)
		}
	}
	for i, taken := range pattern {
		want := (i%innerN != innerN-1)
		if taken != want {
			t.Fatalf("inner branch %d: taken=%v, want %v", i, taken, want)
		}
	}
}

func TestChaseKernelFollowsPointers(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newChaseKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 64, 99)
	g := newGen(memory, 4000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	var in Inst
	var prevVal uint64
	first := true
	seen := map[uint64]bool{}
	for g.Next(&in) {
		if in.Op != OpLoad {
			continue
		}
		if !first && in.Addr != prevVal {
			t.Fatalf("chase broke: next addr %#x, previous value %#x", in.Addr, prevVal)
		}
		first = false
		prevVal = in.Value
		seen[in.Addr] = true
	}
	if len(seen) != 64 {
		t.Errorf("chase visited %d distinct slots, want 64 (full ring)", len(seen))
	}
}

func TestConstKernelStableValues(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newConstKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 3)
	g := newGen(memory, 2000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	vals := map[uint64]uint64{} // PC → value
	var in Inst
	for g.Next(&in) {
		if in.Op != OpLoad {
			continue
		}
		if v, ok := vals[in.PC]; ok && v != in.Value {
			t.Fatalf("constant load at %#x changed value", in.PC)
		}
		vals[in.PC] = in.Value
	}
	// Three pointer slots, each with a pointer reload and a dependent
	// field load: six static load PCs, all with stable values.
	if len(vals) != 6 {
		t.Errorf("distinct const load PCs = %d, want 6", len(vals))
	}
}

func TestStrideKernelAddressPattern(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newStrideKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 1000, 8, 8)
	g := newGen(memory, 5000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	var prev uint64
	first := true
	var in Inst
	for g.Next(&in) {
		if in.Op != OpLoad {
			continue
		}
		if !first && in.Addr != prev+8 && in.Addr != 0x2000_0000 {
			t.Fatalf("stride broke: %#x after %#x", in.Addr, prev)
		}
		first = false
		prev = in.Addr
	}
}

func TestStoreUpdateKernelValuesTrackStores(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newStoreUpdateKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000)
	g := newGen(memory, 600, 1<<30, []kernelSlot{{k: k, weight: 1}})
	var lastStore uint64
	var in Inst
	for g.Next(&in) {
		switch in.Op {
		case OpStore:
			lastStore = in.Value
		case OpLoad:
			if in.Value != lastStore {
				t.Fatalf("load value %d != last stored %d", in.Value, lastStore)
			}
		}
	}
	if lastStore == 0 {
		t.Error("no stores emitted")
	}
}

func TestCallsiteKernelSharedLoadAlternates(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newCallsiteKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 2, 1000)
	g := newGen(memory, 4000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	sharedPC := uint64(0x40_0200)
	addrs := map[uint64]bool{}
	var in Inst
	calls, rets := 0, 0
	var prevField uint64
	haveField := false
	for g.Next(&in) {
		switch {
		case in.Op == OpLoad && in.PC == sharedPC:
			addrs[in.Addr] = true
		case in.Op == OpLoad && in.PC == sharedPC+4:
			prevField = in.Value
			haveField = true
		case in.Op == OpLoad && in.PC < sharedPC && in.PC >= 0x40_0000 && haveField:
			// Site-local load of the next iteration: the site must be
			// the one selected by the previous field value (the
			// data-dependent dispatch).
			wantSite := prevField % 2
			gotSite := (in.PC - 0x40_0000) / 0x40
			if uint64(gotSite) != wantSite {
				t.Fatalf("dispatched to site %d, field selected %d", gotSite, wantSite)
			}
		}
		if in.Op == OpCall {
			calls++
		}
		if in.Op == OpRet {
			rets++
		}
	}
	if len(addrs) == 0 {
		t.Error("shared load never executed")
	}
	if calls == 0 || rets == 0 {
		t.Error("no call/return traffic")
	}
}

func TestCollectHonorsShortStreams(t *testing.T) {
	w, _ := ByName("mcf")
	out := Collect(w.Build(100), 500)
	if len(out) != 100 {
		t.Errorf("Collect = %d instructions, want 100 (stream end)", len(out))
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{
		OpALU: "alu", OpLoad: "load", OpStore: "store", OpBranch: "branch",
		OpJump: "jump", OpCall: "call", OpRet: "ret", OpIndirect: "indirect",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
	if Op(200).String() != "op?" {
		t.Error("unknown op must format as op?")
	}
}

func TestRegionsDisjoint(t *testing.T) {
	if region(1)-region(0) < 8<<20 {
		t.Error("kernel regions too close; working sets may collide")
	}
}

func TestProfilesCovered(t *testing.T) {
	byProfile := map[string]int{}
	for _, w := range Workloads() {
		byProfile[w.Profile]++
	}
	for _, p := range []string{profMedia, profFP, profInt, profPointer, profJS, profEmbedded} {
		if byProfile[p] < 5 {
			t.Errorf("profile %s has only %d workloads", p, byProfile[p])
		}
	}
}

func TestRingbufConsumerSeesFreshValues(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newRingbufKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 64, 9)
	g := newGen(memory, 6000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	produced := map[uint64]uint64{}
	consumerPC := uint64(0x40_0100)
	var in Inst
	consumed := 0
	for g.Next(&in) {
		switch {
		case in.Op == OpStore && in.PC == 0x40_0004:
			produced[in.Addr] = in.Value
		case in.Op == OpLoad && in.PC == consumerPC:
			consumed++
			if want, ok := produced[in.Addr]; !ok || in.Value != want {
				t.Fatalf("consumer read %#x from %#x, producer wrote %#x", in.Value, in.Addr, want)
			}
		}
	}
	if consumed == 0 {
		t.Fatal("no consumer loads")
	}
}

func TestRingbufValuesChangeEveryLap(t *testing.T) {
	memory := mem.NewBacking(1)
	k := newRingbufKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 32, 9)
	g := newGen(memory, 8000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	seen := map[uint64]map[uint64]bool{} // addr -> set of values
	var in Inst
	for g.Next(&in) {
		if in.Op == OpLoad && in.PC == 0x40_0100 {
			if seen[in.Addr] == nil {
				seen[in.Addr] = map[uint64]bool{}
			}
			seen[in.Addr][in.Value] = true
		}
	}
	multi := 0
	for _, vals := range seen {
		if len(vals) > 1 {
			multi++
		}
	}
	if multi < len(seen)/2 {
		t.Errorf("only %d/%d ring slots changed values across laps; values must be fresh", multi, len(seen))
	}
}

func TestSeqChaseValuesAreStridedAddresses(t *testing.T) {
	// Documents the kernel's known property: a sequentially allocated
	// list has stride-predictable values (so stride *value* predictors
	// can also capture it — see DESIGN.md §5 on workload balance).
	memory := mem.NewBacking(1)
	k := newSeqChaseKernel(0x40_0000, regWindow{base: 1}, 0x2000_0000, 128, 64)
	g := newGen(memory, 4000, 1<<30, []kernelSlot{{k: k, weight: 1}})
	var in Inst
	var prev uint64
	first := true
	for g.Next(&in) {
		if in.Op != OpLoad {
			continue
		}
		if !first && in.Value != prev+64 && in.Value != 0x2000_0000 {
			t.Fatalf("chain value %#x not prev+64 (%#x)", in.Value, prev)
		}
		first = false
		prev = in.Value
	}
}

// Property: Collect is deterministic and a prefix of a longer run for
// every workload (streaming generators must not depend on read size).
func TestCollectPrefixProperty(t *testing.T) {
	for _, name := range []string{"gcc2k", "mcf", "v8", "coremark"} {
		w, _ := ByName(name)
		short := Collect(w.Build(3000), 3000)
		long := Collect(w.Build(6000), 6000)
		for i := range short {
			if short[i] != long[i] {
				t.Fatalf("%s: instruction %d differs between run lengths", name, i)
			}
		}
	}
}
