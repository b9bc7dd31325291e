// Package trace defines the instruction stream format consumed by the
// pipeline model and the synthetic workload generators that stand in
// for the paper's 85 benchmark simpoints (SPEC2K/2K6, EEMBC, browser
// and JavaScript workloads — see DESIGN.md §2 for the substitution
// argument).
//
// A workload is a deterministic stream of micro-ops with explicit
// register dependences, load/store addresses and values, and branch
// outcomes. Loads and stores are architecturally consistent with a
// backing memory image: generators write program data through it and
// read load values from it, so address-predicting value predictors that
// probe the (simulated) data cache observe the same values the loads
// return.
package trace

import "repro/internal/mem"

// Op is the micro-op kind.
type Op uint8

// Micro-op kinds.
const (
	OpALU    Op = iota // register-to-register computation
	OpLoad             // memory read
	OpStore            // memory write
	OpBranch           // conditional direct branch
	OpJump             // unconditional direct branch
	OpCall             // direct call (pushes return address)
	OpRet              // return (pops return address)
	OpIndirect
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpJump:
		return "jump"
	case OpCall:
		return "call"
	case OpRet:
		return "ret"
	case OpIndirect:
		return "indirect"
	}
	return "op?"
}

// Flags mark memory-ordering properties that exclude an access from
// value/address prediction (Section III-A: ordering instructions,
// atomic and exclusive accesses are never predicted).
type Flags uint8

// Flag bits.
const (
	FlagAtomic Flags = 1 << iota
	FlagExclusive
	FlagOrdered
)

// NoPredict reports whether the flags exclude prediction.
func (f Flags) NoPredict() bool { return f != 0 }

// Reg names an architectural register. Register 0 is the zero/none
// register: it is always ready and never creates a dependence.
type Reg uint8

// NumRegs is the architectural register count (ARM-like: 31 general
// registers plus the zero register).
const NumRegs = 32

// Inst is one micro-op of the trace, carrying both the architectural
// outcome (addresses, values, branch directions — the trace is the
// correct execution) and the dependence information the timing model
// needs.
//
// The four 8-byte words come first and the eight 1-byte fields follow,
// so an Inst packs into 40 bytes with no padding; interleaving them
// cost 64. Recordings hold millions of Insts, so keep new fields in
// this order (TestInstSize pins the size). The codecs write fields by
// name, so the order is not part of any format.
type Inst struct {
	PC uint64

	// Addr, Value and Size describe memory operations: for loads, Value
	// is the (architecturally correct) loaded value; for stores, the
	// value written.
	Addr  uint64
	Value uint64

	// Target and Taken describe control flow. Target is meaningful for
	// taken branches, jumps, calls, indirect branches and returns.
	Target uint64

	Op    Op
	Dst   Reg   // 0 = none
	Src1  Reg   // 0 = none
	Src2  Reg   // 0 = none
	Size  uint8 // memory access size in bytes
	Taken bool  // branch direction

	// Lat is the intrinsic execute latency in cycles for non-memory
	// ops (1 for simple ALU, more for multiply/divide).
	Lat uint8

	Flags Flags
}

// IsBranch reports whether the op participates in branch prediction.
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case OpBranch, OpJump, OpCall, OpRet, OpIndirect:
		return true
	}
	return false
}

// Generator produces a deterministic instruction stream.
type Generator interface {
	// Next fills inst with the next micro-op, returning false at end of
	// stream.
	Next(inst *Inst) bool

	// Mem exposes the architectural memory image the stream's loads and
	// stores refer to.
	Mem() *mem.Backing
}
