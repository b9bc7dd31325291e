package trace

import (
	"slices"
	"sync/atomic"

	"repro/internal/branch"
	"repro/internal/mem"
)

// Replay is an in-memory recording of a generator's instruction stream
// that can be rewound and consumed again without re-running the
// kernels. It exists for steady-state benchmarking and repeated-run
// tooling: generation costs both time and allocations (the emitter's
// buffers, the kernels' working state), and a Replay moves all of that
// out of the measured region — Rewind and every Next are allocation
// free.
type Replay struct {
	insts []Inst
	mem   *mem.Backing
	pos   int

	// branches is the recording's branch-outcome slot, shared by every
	// cursor over it (see BranchOutcomes).
	branches *atomic.Pointer[BranchOutcomes]
}

// BranchOutcomes is what a branch predictor made of the first Len
// instructions of a recording: one mispredict bit per instruction,
// computed under the configuration it names. A single-context run's
// branch outcomes depend only on the instruction stream and the branch
// configuration, so the pipeline computes them on a recording's first
// run and replays them on later ones (DESIGN.md §8). Published outcomes
// are read-only.
type BranchOutcomes struct {
	TAGE    branch.TAGEConfig
	ITTAGE  branch.ITTAGEConfig
	RASSize int

	Len          int      // instructions covered, from the first
	Mispredicted []uint64 // bit i%64 of word i/64: instruction i mispredicted
}

// maxHintAhead bounds how far Record's size hint may run ahead of the
// instructions actually recorded: the first allocation, made when the
// first instruction arrives, holds at most this many instructions
// (5 MiB), and each later one at most doubles what was really
// recorded. A hint read from untrusted input, such as an artifact
// header, therefore cannot reserve memory its stream never fills.
const maxHintAhead = 1 << 17

// Record drains gen (up to limit instructions; 0 means the generator's
// own end of stream) into a replayable trace. sizeHint is the expected
// stream length (0 = unknown): the recording is pre-sized toward it so
// it grows with few copies, but the hint never cuts the stream short,
// and a recording that ends well short of its hint is clipped to size.
// The architectural memory image is snapshotted before the first
// instruction is generated, so a replayed run observes the same
// Run-start image a fresh generator would present.
func Record(gen Generator, limit, sizeHint uint64) *Replay {
	if limit > 0 && sizeHint > limit {
		sizeHint = limit
	}
	r := &Replay{mem: gen.Mem().Clone(), branches: new(atomic.Pointer[BranchOutcomes])}
	var in Inst
	for (limit == 0 || uint64(len(r.insts)) < limit) && gen.Next(&in) {
		if n := uint64(len(r.insts)); n == uint64(cap(r.insts)) && n < sizeHint {
			grown := make([]Inst, n, min(sizeHint, max(2*n, maxHintAhead)))
			copy(grown, r.insts)
			r.insts = grown
		}
		r.insts = append(r.insts, in)
	}
	if n := len(r.insts); sizeHint > 0 && cap(r.insts)-n > cap(r.insts)/8 {
		r.insts = slices.Clone(r.insts)
	}
	return r
}

// Mem implements Generator. Unlike a live generator, the image is the
// Run-start snapshot and does not advance with the stream; consumers
// that apply stores must do so on their own copy (the pipeline does).
// The image is shared across rewinds, so callers must not mutate it.
func (r *Replay) Mem() *mem.Backing { return r.mem }

// Next implements Generator.
func (r *Replay) Next(in *Inst) bool {
	if r.pos >= len(r.insts) {
		return false
	}
	*in = r.insts[r.pos]
	r.pos++
	return true
}

// Rewind restarts the stream from the first instruction.
func (r *Replay) Rewind() { r.pos = 0 }

// NewReplay wraps an already-materialized instruction stream and its
// start-of-run memory image as a Replay. It is the constructor trace
// ingestion uses: a converter that decoded an external trace hands the
// finished instruction slice and the reconstructed pre-image straight
// to the replay machinery instead of re-recording through a Generator.
// Both arguments are captured, not copied — the caller must not mutate
// them afterwards (the same read-only contract Cursor documents).
func NewReplay(insts []Inst, image *mem.Backing) *Replay {
	return &Replay{insts: insts, mem: image, branches: new(atomic.Pointer[BranchOutcomes])}
}

// Cursor returns an independent read position over the same recording.
// The instruction slice and the Run-start memory image are shared, not
// copied, so cursors are cheap enough to hand one to every run. Sharing
// is safe for concurrent replays because both shared structures are
// read-only by contract: the slice is never written after Record, and
// consumers that apply stores do so on their own copy of the image (the
// pipeline clones or CopyFroms it at Run start; Backing.CopyFrom reads
// only the source's pages, never its internal read memo). The
// branch-outcome slot is shared too.
func (r *Replay) Cursor() *Replay {
	return &Replay{insts: r.insts, mem: r.mem, branches: r.branches}
}

// CursorN returns an independent cursor bounded to the first n
// instructions of the recording (0 or past-the-end means the whole
// recording). External workloads resolve Build(n) through this: the
// registered trace is recorded once and every budget replays a prefix.
// A prefix shares the recording's branch-outcome slot: outcomes cover
// instructions from the first, so they serve every shorter run.
func (r *Replay) CursorN(n uint64) *Replay {
	insts := r.insts
	if n > 0 && n < uint64(len(insts)) {
		insts = insts[:n]
	}
	return &Replay{insts: insts, mem: r.mem, branches: r.branches}
}

// Len returns the number of recorded instructions.
func (r *Replay) Len() int { return len(r.insts) }

// Pos returns how many instructions the cursor has consumed.
func (r *Replay) Pos() int { return r.pos }

// BranchOutcomes returns the branch outcomes last published for the
// recording, or nil when none has been.
func (r *Replay) BranchOutcomes() *BranchOutcomes { return r.branches.Load() }

// PublishBranchOutcomes installs o as the recording's branch outcomes
// if the slot still holds old (nil for an empty slot) and reports
// whether it did. Every cursor over the recording sees the result.
func (r *Replay) PublishBranchOutcomes(old, o *BranchOutcomes) bool {
	return r.branches.CompareAndSwap(old, o)
}

// Remaining exposes the not-yet-consumed tail of the recording as a
// slice, letting batch consumers (the pipeline run loop) walk the
// instructions in place instead of copying each through Next. Callers
// must treat the slice as read-only — it is shared across rewinds and,
// for artifact-backed replays, across concurrent cursors — and must
// report consumption via Advance to keep Next/Remaining coherent.
func (r *Replay) Remaining() []Inst { return r.insts[r.pos:] }

// Advance consumes n instructions from the stream, as if Next had been
// called n times. n past the end clamps to the end.
func (r *Replay) Advance(n int) {
	r.pos += n
	if r.pos > len(r.insts) {
		r.pos = len(r.insts)
	}
}
