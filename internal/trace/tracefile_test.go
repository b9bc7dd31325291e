package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	w, _ := ByName("gcc2k")
	var buf bytes.Buffer
	n, err := writeTrace(&buf, w.Build(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20_000 {
		t.Fatalf("wrote %d instructions", n)
	}

	rd, err := newTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := w.Build(20_000)
	var a, b Inst
	i := 0
	for orig.Next(&a) {
		if !rd.Next(&b) {
			t.Fatalf("replay ended early at %d: %v", i, rd.Err())
		}
		if a != b {
			t.Fatalf("instruction %d differs:\n  orig   %+v\n  replay %+v", i, a, b)
		}
		i++
	}
	if rd.Next(&b) {
		t.Error("replay produced extra instructions")
	}
	if rd.Err() != nil {
		t.Errorf("reader error: %v", rd.Err())
	}
}

func TestTraceReplayMemoryImage(t *testing.T) {
	// The reader's memory image must track stores so that load values
	// remain architecturally consistent (the same invariant live
	// generators provide).
	w, _ := ByName("v8")
	var buf bytes.Buffer
	if _, err := writeTrace(&buf, w.Build(20_000)); err != nil {
		t.Fatal(err)
	}
	rd, err := newTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	for rd.Next(&in) {
		if in.Op == OpLoad {
			if got := rd.Mem().Read(in.Addr, in.Size); got != in.Value {
				t.Fatalf("replayed memory image inconsistent at %#x: %#x vs %#x", in.Addr, got, in.Value)
			}
		}
	}
}

func TestTraceCompactness(t *testing.T) {
	w, _ := ByName("linpack")
	var buf bytes.Buffer
	n, _ := writeTrace(&buf, w.Build(20_000))
	perInst := float64(buf.Len()) / float64(n)
	if perInst > 16 {
		t.Errorf("trace uses %.1f bytes/instruction, want <= 16", perInst)
	}
}

func TestTraceBadInput(t *testing.T) {
	if _, err := newTraceReader(strings.NewReader("NOPE")); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := newTraceReader(strings.NewReader("LV")); err == nil {
		t.Error("accepted truncated magic")
	}
	// Truncated mid-stream: Next must stop with an error, not hang or
	// panic.
	w, _ := ByName("gzip")
	var buf bytes.Buffer
	if _, err := writeTrace(&buf, w.Build(1000)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	rd, err := newTraceReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	for rd.Next(&in) {
	}
	if rd.Err() == nil {
		t.Error("truncated trace decoded without error")
	}
}

func TestTraceFlaggedInstructionsSurvive(t *testing.T) {
	w, _ := ByName("perlbench")
	var buf bytes.Buffer
	if _, err := writeTrace(&buf, w.Build(60_000)); err != nil {
		t.Fatal(err)
	}
	rd, _ := newTraceReader(&buf)
	var in Inst
	flagged := 0
	for rd.Next(&in) {
		if in.Flags.NoPredict() {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("atomic/exclusive flags lost in round trip")
	}
}
