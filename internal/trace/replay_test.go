package trace

import "testing"

func TestReplayMatchesLiveStream(t *testing.T) {
	w, _ := ByName("gcc2k")
	const n = 5000
	rep := Record(w.Build(n), 0, 0)
	if rep.Len() != n {
		t.Fatalf("recorded %d instructions, want %d", rep.Len(), n)
	}

	live := w.Build(n)
	var a, b Inst
	for i := 0; ; i++ {
		la, lb := live.Next(&a), rep.Next(&b)
		if la != lb {
			t.Fatalf("stream length mismatch at %d: live=%v replay=%v", i, la, lb)
		}
		if !la {
			break
		}
		if a != b {
			t.Fatalf("instruction %d differs:\n live: %+v\nreplay: %+v", i, a, b)
		}
	}

	// Rewind restarts the identical stream.
	rep.Rewind()
	live2 := w.Build(n)
	for i := 0; live2.Next(&a); i++ {
		if !rep.Next(&b) || a != b {
			t.Fatalf("rewound stream diverged at %d", i)
		}
	}
}

// TestReplayMemIsRunStartImage pins the snapshot semantics: Mem must
// equal a fresh generator's image before any instruction is consumed —
// that is what a pipeline copies at Run start — even though recording
// drained the live generator (whose image advances with its stores).
func TestReplayMemIsRunStartImage(t *testing.T) {
	w, _ := ByName("mcf")
	rep := Record(w.Build(2000), 0, 0)
	fresh := w.Build(2000)
	for _, addr := range []uint64{0, 64, 4096, 1 << 20} {
		if got, want := rep.Mem().Read(addr, 8), fresh.Mem().Read(addr, 8); got != want {
			t.Errorf("Mem[%#x] = %#x, want fresh-generator image %#x", addr, got, want)
		}
	}
}

// TestReplayMaxTruncates: max cuts the stream, the size hint never
// does, and the recording holds little capacity beyond its length
// whether the hint was short, exact, long, or past maxHintAhead.
func TestReplayMaxTruncates(t *testing.T) {
	w, _ := ByName("gcc2k")
	for _, c := range []struct {
		stream, max, hint uint64
		want              int
	}{
		{5000, 100, 0, 100},
		{5000, 100, 5000, 100},
		{5000, 0, 1000, 5000},
		{5000, 0, 5000, 5000},
		{5000, 0, 1 << 40, 5000},
		{maxHintAhead + 5000, 0, maxHintAhead + 5000, maxHintAhead + 5000},
	} {
		rep := Record(w.Build(c.stream), c.max, c.hint)
		if rep.Len() != c.want {
			t.Errorf("stream %d, max %d, hint %d: recorded %d instructions, want %d",
				c.stream, c.max, c.hint, rep.Len(), c.want)
		}
		if c.hint > 0 && cap(rep.insts)-rep.Len() > cap(rep.insts)/8 {
			t.Errorf("stream %d, max %d, hint %d: capacity %d for %d instructions",
				c.stream, c.max, c.hint, cap(rep.insts), rep.Len())
		}
	}
}
