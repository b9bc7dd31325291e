package vpsec

import (
	"testing"

	"repro/internal/core"
)

func lookupWith(preds map[core.Component]core.Prediction) *core.Lookup {
	var lk core.Lookup
	for comp, pr := range preds {
		lk.Confident.Add(comp)
		lk.Preds[comp] = pr
	}
	return &lk
}

func val(v uint64) core.Prediction {
	return core.Prediction{Kind: core.KindValue, Value: v}
}

func addr(a uint64) core.Prediction {
	return core.Prediction{Kind: core.KindAddress, Addr: a, Size: 8}
}

func TestQuorumOverrulesFaultedValue(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{
		core.CompLVP: val(100),
		core.CompCVP: val(100),
	})
	v := d.Check(lk, 100^(1<<17), 8, nil)
	if !v.Faulted || v.Corrected != 100 || v.Witnesses != 2 {
		t.Errorf("verdict = %+v, want faulted with correction 100", v)
	}
}

func TestSingleWitnessInsufficient(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{core.CompLVP: val(100)})
	if v := d.Check(lk, 999, 8, nil); v.Faulted {
		t.Error("one witness overruled the datapath")
	}
}

func TestAgreementWithObservedIsClean(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{
		core.CompLVP: val(100),
		core.CompCVP: val(100),
	})
	if v := d.Check(lk, 100, 8, nil); v.Faulted {
		t.Error("flagged a clean load")
	}
}

func TestDisagreeingWitnessesNoQuorum(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{
		core.CompLVP: val(100),
		core.CompCVP: val(200),
	})
	if v := d.Check(lk, 300, 8, nil); v.Faulted {
		t.Error("disagreeing predictors formed a quorum")
	}
}

// TestTiedQuorumsDeterministic pins how two equal quorums are settled:
// one that agrees with the loaded value corroborates it, and between two
// others the value voted first (in component order) is the correction.
// The verdict must not vary from call to call.
func TestTiedQuorumsDeterministic(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{
		core.CompLVP: val(100),
		core.CompSAP: addr(0x1000),
		core.CompCVP: val(100),
		core.CompCAP: addr(0x1000),
	})
	resolve := func(a uint64, size uint8) (uint64, bool) { return 777, true }
	for i := 0; i < 64; i++ {
		for _, observed := range []uint64{100, 777} {
			if v := d.Check(lk, observed, 8, resolve); v.Faulted {
				t.Fatalf("call %d: a quorum agreeing with the loaded value %d was overruled: %+v", i, observed, v)
			}
		}
		if v := d.Check(lk, 5, 8, resolve); !v.Faulted || v.Corrected != 100 || v.Witnesses != 2 {
			t.Fatalf("call %d: verdict %+v, want faulted with correction 100 (LVP votes first)", i, v)
		}
	}
}

func TestAddressWitnessesVoteThroughCache(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{
		core.CompSAP: addr(0x1000),
		core.CompCAP: addr(0x1000),
	})
	resolve := func(a uint64, size uint8) (uint64, bool) { return 777, true }
	v := d.Check(lk, 776, 8, resolve)
	if !v.Faulted || v.Corrected != 777 {
		t.Errorf("cache witnesses did not overrule: %+v", v)
	}
}

func TestNilLookupClean(t *testing.T) {
	d := New(DefaultConfig())
	if v := d.Check(nil, 1, 8, nil); v.Faulted {
		t.Error("nil lookup flagged")
	}
}

func TestInjectorRate(t *testing.T) {
	inj := NewInjector(10, 7)
	faults := 0
	for i := 0; i < 100000; i++ {
		v, hit := inj.Corrupt(42)
		if hit {
			faults++
			if v == 42 {
				t.Fatal("fault did not change the value")
			}
		} else if v != 42 {
			t.Fatal("clean path changed the value")
		}
	}
	if faults < 8000 || faults > 12000 {
		t.Errorf("fault count %d for 1-in-10 rate over 100k", faults)
	}
	clean := NewInjector(0, 7)
	if _, hit := clean.Corrupt(42); hit {
		t.Error("rate-0 injector faulted")
	}
}

func TestStatsScoring(t *testing.T) {
	d := New(DefaultConfig())
	lk := lookupWith(map[core.Component]core.Prediction{
		core.CompLVP: val(100),
		core.CompCVP: val(100),
	})
	// Detected + corrected fault.
	d.Record(d.Check(lk, 101, 8, nil), true, 100)
	// Missed fault (no quorum).
	single := lookupWith(map[core.Component]core.Prediction{core.CompLVP: val(100)})
	d.Record(d.Check(single, 101, 8, nil), true, 100)
	// Clean load, clean verdict.
	d.Record(d.Check(lk, 100, 8, nil), false, 100)
	// Clean load flagged: the predictors are stale, the load is right.
	stale := lookupWith(map[core.Component]core.Prediction{
		core.CompLVP: val(5),
		core.CompCVP: val(5),
	})
	d.Record(d.Check(stale, 6, 8, nil), false, 6)

	s := d.Stats()
	if s.Checked != 4 || s.FaultsInjected != 2 || s.Detected != 1 ||
		s.Corrected != 1 || s.Missed != 1 || s.FalsePositives != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.DetectionRate() != 0.5 {
		t.Errorf("detection rate = %v", s.DetectionRate())
	}
	if s.FalsePositiveRate() != 0.5 {
		t.Errorf("false positive rate = %v", s.FalsePositiveRate())
	}
}

// End-to-end: drive the composite over a predictable stream, inject
// faults, and require high detection with near-zero false positives.
func TestVPsecEndToEnd(t *testing.T) {
	comp := core.NewComposite(core.CompositeConfig{
		Entries: core.HomogeneousEntries(256), Seed: 1,
	})
	det := New(DefaultConfig())
	inj := NewInjector(20, 99)

	mem := map[uint64]uint64{}
	resolve := func(a uint64, size uint8) (uint64, bool) {
		v, ok := mem[a]
		return v, ok
	}
	// 16 stable loads (constant value at constant address).
	type ld struct{ pc, addrV, value uint64 }
	loads := make([]ld, 16)
	for i := range loads {
		loads[i] = ld{pc: 0x1000 + uint64(i)*4, addrV: 0x8000 + uint64(i)*64, value: 0xC0DE + uint64(i)}
		mem[loads[i].addrV] = loads[i].value
	}
	for round := 0; round < 400; round++ {
		for _, l := range loads {
			lk := comp.Probe(core.Probe{PC: l.pc})
			observed, injected := inj.Corrupt(l.value)
			if round > 200 {
				// Score only after the predictors are warm.
				det.Record(det.Check(&lk, observed, 8, resolve), injected, l.value)
			}
			// Train with the architecturally correct value (the fault
			// hits the consumer datapath, not the training path, in
			// this model).
			o := core.Outcome{PC: l.pc, Addr: l.addrV, Value: l.value, Size: 8}
			comp.Train(o, &lk, core.Validate(&lk, o, resolve))
		}
	}
	s := det.Stats()
	if s.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if rate := s.DetectionRate(); rate < 0.95 {
		t.Errorf("detection rate %.3f, want >= 0.95 (stats %+v)", rate, s)
	}
	if fp := s.FalsePositiveRate(); fp > 0.001 {
		t.Errorf("false positive rate %.4f, want <= 0.1%%", fp)
	}
	if s.Corrected < s.Detected*9/10 {
		t.Errorf("corrections %d of %d detections", s.Corrected, s.Detected)
	}
}
