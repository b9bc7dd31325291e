package server

// WorkloadUpload is the response of POST /v1/workloads: the identity an
// uploaded trace runs under, plus the converter's reconstruction report
// so the client can judge substitution fidelity before spending sweep
// budget on it.
type WorkloadUpload struct {
	// Workload is the content-addressed name ("ext:<hash>") specs
	// reference to simulate this trace.
	Workload string `json:"workload"`
	// Insts is the trace's instruction count — the maximum useful
	// per-context budget for specs over this workload.
	Insts uint64 `json:"insts"`
	// Artifact is the content address of the persisted recording in the
	// trace artifact store (GET /v1/traces/{hash} exports it).
	Artifact string `json:"artifact"`
	// BackfilledBytes counts memory-image bytes reconstructed from load
	// values rather than the trace's fill seed.
	BackfilledBytes uint64 `json:"backfilled_bytes"`
	// InconsistentLoads counts loads whose value contradicts the
	// trace's own earlier accesses (see internal/tracein); nonzero
	// means the source trace is internally inconsistent.
	InconsistentLoads uint64 `json:"inconsistent_loads,omitempty"`
	// DroppedSrcRegs counts source registers beyond the micro-op's two
	// source slots.
	DroppedSrcRegs uint64 `json:"dropped_src_regs,omitempty"`
}
