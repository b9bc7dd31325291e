package trace

import (
	"bytes"
	"testing"
)

// The artifact-layer benchmarks run over one 100k-instruction stream
// and set bytes to its instruction count, so the MB/s column reads as
// millions of instructions per second. Together they re-check the
// artifact store's premise (DESIGN.md §13.1): recording a synthetic
// stream from its generator costs less than decoding its artifact, so
// only uploaded traces go through the codec.

const (
	benchWorkload    = "gcc2k"
	benchStreamInsts = 100_000
)

// benchReplay keeps the measured recordings reachable, so the compiler
// cannot drop the work that produced them.
var benchReplay *Replay

// benchRecording returns the benchmark stream's recording.
func benchRecording(b *testing.B) *Replay {
	b.Helper()
	gen, ok := BuildStream(benchWorkload, benchStreamInsts)
	if !ok {
		b.Fatalf("unknown workload %q", benchWorkload)
	}
	return Record(gen, 0, benchStreamInsts)
}

// BenchmarkRecord measures generating and recording a synthetic
// stream: what an artifact store pays on a miss.
func BenchmarkRecord(b *testing.B) {
	b.SetBytes(benchStreamInsts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen, _ := BuildStream(benchWorkload, benchStreamInsts)
		benchReplay = Record(gen, 0, benchStreamInsts)
	}
}

// BenchmarkWriteArtifact measures encoding a recording as an artifact:
// what persisting or pre-shipping a stream costs.
func BenchmarkWriteArtifact(b *testing.B) {
	rep := benchRecording(b)
	var buf bytes.Buffer
	b.SetBytes(benchStreamInsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteArtifact(&buf, benchWorkload, benchStreamInsts, rep.Cursor()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadArtifact measures decoding an artifact into a
// recording: what a disk hit or a received PUT /v1/traces costs.
func BenchmarkReadArtifact(b *testing.B) {
	var buf bytes.Buffer
	if _, err := WriteArtifact(&buf, benchWorkload, benchStreamInsts, benchRecording(b).Cursor()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(benchStreamInsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rep, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchReplay = rep
	}
}
