package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// listed encodes the warehouse's live records in List order, one JSON
// document each: decoding may give equal records different in-memory
// forms (a time's location), so records compare by encoding.
func listed(t *testing.T, w *Warehouse) []string {
	var out []string
	for _, rec := range w.List(Filter{}) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("encoding a live record: %v", err)
		}
		out = append(out, string(b))
	}
	return out
}

// FuzzKeyedFile writes arbitrary bytes as warehouse.log and opens the
// warehouse over them. The open must succeed, whatever the bytes; a
// reopen must list the same live records in the same order; and a
// record put after the first open must be among them, which shows that
// the open cut the file back to a frame edge before appending.
func FuzzKeyedFile(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	frames := func(hashes ...string) []byte {
		var b bytes.Buffer
		for i, hash := range hashes {
			rec := RunRecord{SpecHash: hash, Tenant: "alice", Workload: "gcc2k", Predictor: "composite",
				Time: at.Add(time.Duration(i) * time.Second), Result: json.RawMessage(`{"ipc":1.5}`), Contexts: i % 3}
			if _, err := writeFrame(&b, rec); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	// Four of seven records are superseded, so opening compacts.
	compacting := frames("a", "b", "a", "b", "a", "b", "c")
	f.Add([]byte{})
	f.Add(frames("a", "b", "c"))
	f.Add(compacting)
	f.Add(append(slices.Clone(compacting), 9, 0, 0, 0, 1)) // torn tail
	f.Add(append(frames("a"), frames("")...))              // a record without a key ends the intact prefix
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, '{'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, warehouseFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWarehouse(dir)
		if err != nil {
			t.Fatalf("opening %d bytes: %v", len(data), err)
		}
		before := listed(t, w)
		key := "put-after-open"
		for {
			if _, taken := w.Get(key); !taken {
				break
			}
			key += "+"
		}
		if err := w.Put(RunRecord{SpecHash: key, Result: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
		want := listed(t, w)
		if len(want) != len(before)+1 || !slices.Equal(want[1:], before) {
			t.Fatalf("putting %q changed the other live records:\n%q\nthen\n%q", key, before, want)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		w, err = OpenWarehouse(dir)
		if err != nil {
			t.Fatalf("reopening: %v", err)
		}
		defer w.Close()
		if got := listed(t, w); !slices.Equal(got, want) {
			t.Fatalf("reopen listed\n%q\nwant\n%q", got, want)
		}
	})
}
