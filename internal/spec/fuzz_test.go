package spec

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSimCanonical drives the spec boundary with arbitrary JSON, the
// input every daemon and the experiments CLI accept. Canonical must
// never panic, and a canonical spec is a fixed point: canonicalizing it
// again returns the same spec and the same hash, which lvpd's cache,
// the warehouse and the experiment memo all key on.
func FuzzSimCanonical(f *testing.F) {
	for _, name := range PresetNames() {
		sim, _ := Preset(name)
		sim.Workload.Name = "gcc2k"
		b, err := json.Marshal(sim)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workload":{"name":"mcf","names":["mcf","gcc2k"],"insts":9000000},"machine":{"contexts":2,"interleave":"block"}}`))
	f.Add([]byte(`{"workload":{"name":"gcc2k"},"predictor":{"family":"lvp","entries_per":64,"am":"m"},"machine":{"paq_depth":0,"rob":224}}`))
	f.Add([]byte(`{"workload":{"name":"gcc2k"},"predictor":{"family":"eves","budget_kb":-7}}`))
	d := Defaults{Insts: 100_000, MaxInsts: 5_000_000, Seed: 1}
	f.Fuzz(func(t *testing.T, b []byte) {
		var sim Sim
		if json.Unmarshal(b, &sim) != nil {
			return
		}
		n, hash, err := sim.Canonical(d)
		if err != nil {
			return
		}
		again, hash2, err := n.Canonical(d)
		if err != nil {
			t.Fatalf("canonical spec %+v fails to canonicalize again: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) || hash2 != hash {
			t.Fatalf("Canonical is not idempotent:\n first %+v (%s)\nsecond %+v (%s)", n, hash, again, hash2)
		}
	})
}
