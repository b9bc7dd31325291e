package server

import (
	"io"
	"net/http"
)

// maxTraceArtifactBytes bounds a PUT /v1/traces body. Artifacts are
// gzip-compressed recorded streams — a few bytes per instruction — so
// 64 MiB comfortably covers the largest admissible budgets while
// keeping a hostile upload from ballooning memory.
const maxTraceArtifactBytes = 64 << 20

// handleGetTrace serves the encoded artifact stored under the content
// address in the path, if this process holds it (resident, or an
// uploaded trace in the trace cache directory). It never generates: an
// address alone does not say which workload to run, and generation
// stays tied to simulation demand. A synthetic stream is therefore
// served only while it is resident.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	data, ok := s.traces.Export(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "no artifact under this address")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handlePutTrace installs a pre-generated artifact under its content
// address — the coordinator's pre-shipping path, which hands a sweep's
// workers the uploaded traces they cannot generate. The store verifies
// that the decoded content hashes to the address before accepting, so
// a worker cannot be fed a stream that doesn't match the spec it will
// later simulate.
func (s *Server) handlePutTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceArtifactBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading artifact body: "+err.Error())
		return
	}
	if err := s.traces.Put(key, data); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
