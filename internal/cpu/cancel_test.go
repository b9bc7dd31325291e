package cpu

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// cancellingGen wraps a generator and fires cancel after n instructions
// have been produced, making the mid-run cancellation point
// deterministic.
type cancellingGen struct {
	trace.Generator
	n      uint64
	seen   uint64
	cancel context.CancelFunc
}

func (g *cancellingGen) Next(in *trace.Inst) bool {
	if g.seen == g.n {
		g.cancel()
	}
	g.seen++
	return g.Generator.Next(in)
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, _ := trace.ByName("gcc2k")
	r := New(DefaultConfig(), nil).RunCtx(ctx, w.Build(1_000_000), w.Name, "base")
	if !r.Aborted {
		t.Fatal("run under a cancelled context not marked Aborted")
	}
	if r.Instructions != 0 {
		t.Fatalf("cancelled-before-start run simulated %d instructions, want 0", r.Instructions)
	}

	// The same on four contexts: no context steps an instruction.
	names := []string{"gcc2k", "mcf", "gcc2k", "linpack"}
	p := New(smtConfig(4, 0), nil)
	merged := p.RunSMTCtx(ctx, smtGens(t, names, 1_000_000), names, "smt4", "base")
	if !merged.Aborted || merged.Instructions != 0 {
		t.Fatalf("cancelled-before-start 4-context run: %+v, want Aborted with 0 instructions", merged)
	}
	for i := range names {
		if c := p.ContextRun(i); !c.Aborted || c.Instructions != 0 {
			t.Fatalf("context %d of a cancelled-before-start run: %+v, want Aborted with 0 instructions", i, c)
		}
	}
}

func TestRunCtxCancelsWithinOneInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, _ := trace.ByName("gcc2k")
	const at = 20_000
	gen := &cancellingGen{Generator: w.Build(10_000_000), n: at, cancel: cancel}
	r := New(DefaultConfig(), nil).RunCtx(ctx, gen, w.Name, "base")
	if !r.Aborted {
		t.Fatal("cancelled run not marked Aborted")
	}
	if r.Instructions < at {
		t.Fatalf("run stopped at %d instructions, before the cancellation point %d", r.Instructions, at)
	}
	if r.Instructions > at+cancelCheckInterval {
		t.Fatalf("run continued %d instructions past cancellation, want <= one check interval (%d)",
			r.Instructions-at, cancelCheckInterval)
	}

	// Four contexts over live streams, cancelled by context 0's
	// generator: by then every context has run about at instructions,
	// and the machine stops within one check interval across all four.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	names := []string{"gcc2k", "mcf", "gcc2k", "linpack"}
	gens := smtGens(t, names, 10_000_000)
	gens[0] = &cancellingGen{Generator: gens[0], n: at, cancel: cancel}
	p := New(smtConfig(4, 0), nil)
	merged := p.RunSMTCtx(ctx, gens, names, "smt4", "base")
	if !merged.Aborted {
		t.Fatal("cancelled 4-context run not marked Aborted")
	}
	if merged.Instructions > 4*at+cancelCheckInterval {
		t.Fatalf("4-context run stepped %d instructions, want <= 4·%d + one check interval (%d)",
			merged.Instructions, at, cancelCheckInterval)
	}
	for i := range names {
		if c := p.ContextRun(i); !c.Aborted {
			t.Fatalf("context %d finished its 10M-instruction stream in a cancelled run: %+v", i, c)
		}
	}
}

func TestRunCtxCompleteRunNotAborted(t *testing.T) {
	w, _ := trace.ByName("gcc2k")
	r := New(DefaultConfig(), nil).RunCtx(context.Background(), w.Build(30_000), w.Name, "base")
	if r.Aborted {
		t.Fatal("uncancelled run marked Aborted")
	}
	if r.Instructions != 30_000 {
		t.Fatalf("instructions = %d, want 30000", r.Instructions)
	}
}
