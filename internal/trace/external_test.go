package trace

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestSplitStreamNameMalformed(t *testing.T) {
	cases := []struct {
		stream string
		name   string
		salt   int
	}{
		{"gcc2k", "gcc2k", 0},
		{"gcc2k#3", "gcc2k", 3},
		{"gcc2k#0", "gcc2k", 0},
		{"a#b#2", "a#b", 2},
		{"ext:abc123#4", "ext:abc123", 4},
		// Malformed suffixes are literal workload names, never a salted
		// stream of workload "" (or of a truncated name).
		{"#3", "#3", 0},
		{"#", "#", 0},
		{"name#", "name#", 0},
		{"name#-1", "name#-1", 0},
		{"name#x", "name#x", 0},
		{"name#3x", "name#3x", 0},
		{"name#+3", "name#+3", 0},
		{"", "", 0},
	}
	for _, tc := range cases {
		name, salt := SplitStreamName(tc.stream)
		if name != tc.name || salt != tc.salt {
			t.Errorf("SplitStreamName(%q) = (%q, %d), want (%q, %d)",
				tc.stream, name, salt, tc.name, tc.salt)
		}
		// Well-formed results must round-trip through StreamName.
		if salt > 0 {
			if rt := StreamName(name, salt); rt != tc.stream {
				t.Errorf("StreamName(%q, %d) = %q, want %q", name, salt, rt, tc.stream)
			}
		}
	}
}

// extReplay builds a small recording to register as an external trace.
func extReplay(n int, seed uint64) *Replay {
	insts := make([]Inst, n)
	for i := range insts {
		insts[i] = Inst{PC: uint64(0x1000 + 4*i), Op: OpALU, Dst: 1, Src1: 2, Lat: 1}
	}
	return NewReplay(insts, mem.NewBacking(seed))
}

func TestExternalRegistryValidation(t *testing.T) {
	rep := extReplay(4, 0)
	cases := []struct {
		name string
		rep  *Replay
	}{
		{"gcc2k", rep},                           // no prefix
		{"ext:", rep},                            // empty hash
		{"ext:abc#1", rep},                       // reserved salt separator
		{"ext:" + strings.Repeat("a", 200), rep}, // too long
		{"ext:abc", nil},                         // nil recording
		{"ext:abc", NewReplay(nil, mem.NewBacking(0))}, // empty recording
	}
	for _, tc := range cases {
		if ok, err := RegisterExternal(tc.name, tc.rep, true); err == nil || ok {
			t.Errorf("RegisterExternal(%q) accepted invalid registration", tc.name)
		}
	}
}

func TestExternalRegistryReplaceRules(t *testing.T) {
	const name = "ext:replacerules"
	t.Cleanup(func() { UnregisterExternal(name) })

	register := func(n int, complete bool) bool {
		t.Helper()
		ok, err := RegisterExternal(name, extReplay(n, 0), complete)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	length := func() uint64 {
		n, _, ok := ExternalLen(name)
		if !ok {
			t.Fatal("not registered")
		}
		return n
	}

	if !register(10, false) {
		t.Fatal("first registration rejected")
	}
	// A longer incomplete recording supersedes a shorter one.
	if !register(20, false) || length() != 20 {
		t.Fatalf("longer incomplete recording did not supersede; len=%d", length())
	}
	// A shorter incomplete recording never downgrades.
	if register(5, false) || length() != 20 {
		t.Fatalf("shorter incomplete recording superseded; len=%d", length())
	}
	// A complete recording is authoritative even when shorter: the
	// stream genuinely ends there.
	if !register(15, true) || length() != 15 {
		t.Fatalf("complete recording did not supersede; len=%d", length())
	}
	// Nothing supersedes a complete recording.
	if register(100, false) || length() != 15 {
		t.Fatalf("incomplete recording superseded a complete one; len=%d", length())
	}
	if n, complete, ok := ExternalLen(name); !ok || !complete || n != 15 {
		t.Fatalf("ExternalLen = (%d, %v, %v), want (15, true, true)", n, complete, ok)
	}

	found := false
	for _, n := range ExternalNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Error("ExternalNames omits the registration")
	}

	UnregisterExternal(name)
	if _, ok := ByName(name); ok {
		t.Error("ByName resolves after UnregisterExternal")
	}
}

func TestExternalStreamResolution(t *testing.T) {
	const name = "ext:resolution"
	t.Cleanup(func() { UnregisterExternal(name) })
	if _, err := RegisterExternal(name, extReplay(8, 0), true); err != nil {
		t.Fatal(err)
	}

	w, ok := ByName(name)
	if !ok || w.Profile != ProfileExternal || w.Name != name {
		t.Fatalf("ByName = %+v, %v", w, ok)
	}
	count := func(g Generator) int {
		var in Inst
		n := 0
		for g.Next(&in) {
			n++
		}
		return n
	}
	if n := count(w.Build(3)); n != 3 {
		t.Errorf("Build(3) replayed %d instructions", n)
	}
	if n := count(w.Build(0)); n != 8 {
		t.Errorf("Build(0) replayed %d instructions, want the whole recording", n)
	}
	if n := count(w.Build(100)); n != 8 {
		t.Errorf("Build(100) replayed %d instructions, want 8", n)
	}
	// Salted streams of an external trace replay the same recording:
	// there is no recipe to re-seed.
	g, ok := BuildStream(name+"#2", 5)
	if !ok {
		t.Fatal("BuildStream rejected a salted external stream")
	}
	if n := count(g); n != 5 {
		t.Errorf("salted external stream replayed %d instructions, want 5", n)
	}
}

// TestTraceFileV2RoundTrip covers the explicit pre-image header: a
// recording whose memory image already holds written words must survive
// writeTrace/newTraceReader with the image intact.
func TestTraceFileV2RoundTrip(t *testing.T) {
	img := mem.NewBacking(99)
	img.Write(0x8000, 8, 0xDEADBEEFCAFEF00D)
	img.Write(0x8010, 8, 42)
	img.Write(0x20000, 4, 0x1234) // second page
	insts := []Inst{
		{PC: 1, Op: OpLoad, Dst: 1, Addr: 0x8000, Size: 8, Value: 0xDEADBEEFCAFEF00D, Lat: 1},
		{PC: 2, Op: OpStore, Src1: 1, Addr: 0x8018, Size: 8, Value: 7, Lat: 1},
	}
	rep := NewReplay(insts, img)

	var buf bytes.Buffer
	n, err := writeTrace(&buf, rep.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(insts)) {
		t.Fatalf("wrote %d instructions, want %d", n, len(insts))
	}
	// Version byte: uvarint right after the 4-byte magic.
	if v := buf.Bytes()[4]; v != traceVersionImage {
		t.Fatalf("pre-image recording wrote version %d, want %d", v, traceVersionImage)
	}

	rd, err := newTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Mem().Footprint(); got != img.Footprint() {
		t.Errorf("reconstructed footprint %d, want %d", got, img.Footprint())
	}
	for _, addr := range []uint64{0x8000, 0x8010, 0x20000, 0x9999} {
		if got, want := rd.Mem().Read(addr, 8), img.Read(addr, 8); got != want {
			t.Errorf("image[%#x] = %#x, want %#x", addr, got, want)
		}
	}
	var in Inst
	for i := range insts {
		if !rd.Next(&in) {
			t.Fatalf("stream ended at %d: %v", i, rd.Err())
		}
		if in != insts[i] {
			t.Errorf("instruction %d: got %+v, want %+v", i, in, insts[i])
		}
	}
	if rd.Next(&in) || rd.Err() != nil {
		t.Fatalf("expected clean end of stream, err=%v", rd.Err())
	}

	// Synthetic generators (empty start-of-stream footprint) must keep
	// producing version 1 — byte-identical artifacts across releases.
	w, _ := ByName("gcc2k")
	var sbuf bytes.Buffer
	if _, err := writeTrace(&sbuf, w.Build(500)); err != nil {
		t.Fatal(err)
	}
	if v := sbuf.Bytes()[4]; v != traceVersion {
		t.Fatalf("synthetic recording wrote version %d, want %d", v, traceVersion)
	}
}

func TestArtifactStoreCorruptRegen(t *testing.T) {
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	s, err := NewArtifactStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(quiet)
	// Only uploaded traces are persisted, so the corrupt-file path is an
	// external recording's.
	const name, insts = "ext:corrupt", 2_000
	w, _ := ByName("gcc2k")
	if _, err := RegisterExternal(name, Record(w.Build(insts), 0, 0), true); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { UnregisterExternal(name) })
	if _, err := s.Cursor(name, insts); err != nil {
		t.Fatal(err)
	}
	key := ArtifactKey(name, insts)
	path := filepath.Join(dir, key+artifactFileSuffix)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact not persisted: %v", err)
	}
	// Corrupt the cache file in place.
	if err := os.WriteFile(path, []byte("not a gzip artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store (cold memory) must detect the corruption, count it,
	// and regenerate.
	s2, err := NewArtifactStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetLogger(quiet)
	cur, err := s2.Cursor(name, insts)
	if err != nil {
		t.Fatalf("regeneration failed: %v", err)
	}
	if cur.Len() != insts {
		t.Fatalf("regenerated recording has %d insts, want %d", cur.Len(), insts)
	}
	st := s2.Stats()
	if st.CorruptRegens != 1 {
		t.Errorf("CorruptRegens = %d, want 1", st.CorruptRegens)
	}
	if st.Generated != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want one generation and no disk hits", st)
	}
	// The regenerated artifact must be valid again for the next store.
	s3, err := NewArtifactStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s3.SetLogger(quiet)
	if _, err := s3.Cursor(name, insts); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.DiskHits != 1 || st.CorruptRegens != 0 {
		t.Errorf("stats after regeneration = %+v, want one clean disk hit", st)
	}
}

func TestPutRecordingAndRehydrate(t *testing.T) {
	const name = "ext:rehydrate"
	t.Cleanup(func() { UnregisterExternal(name) })
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// A recording with a reconstructed pre-image (written words), so the
	// persisted artifact exercises the version-2 trace path end to end.
	img := mem.NewBacking(7)
	img.Write(0x4000, 8, 0xFEEDFACE)
	insts := []Inst{
		{PC: 1, Op: OpLoad, Dst: 1, Addr: 0x4000, Size: 8, Value: 0xFEEDFACE, Lat: 1},
		{PC: 2, Op: OpALU, Dst: 2, Src1: 1, Lat: 1},
	}
	rep := NewReplay(insts, img)

	s, err := NewArtifactStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(quiet)
	key, err := s.PutRecording(name, rep)
	if err != nil {
		t.Fatal(err)
	}
	if key != ArtifactKey(name, uint64(len(insts))) {
		t.Fatalf("PutRecording key %q, want content address", key)
	}
	if st := s.Stats(); st.Received != 1 {
		t.Errorf("Received = %d, want 1", st.Received)
	}

	// Simulate a restart: registry empty, fresh store over the same dir.
	UnregisterExternal(name)
	s2, err := NewArtifactStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetLogger(quiet)
	n, err := s2.RehydrateExternal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RehydrateExternal registered %d names, want 1", n)
	}
	w, ok := ByName(name)
	if !ok {
		t.Fatal("rehydrated name does not resolve")
	}
	g := w.Build(0)
	if got := g.Mem().Read(0x4000, 8); got != 0xFEEDFACE {
		t.Errorf("rehydrated pre-image[0x4000] = %#x, want 0xFEEDFACE", got)
	}
	var in Inst
	for i := range insts {
		if !g.Next(&in) || in != insts[i] {
			t.Fatalf("rehydrated instruction %d = %+v, want %+v", i, in, insts[i])
		}
	}

	// A corrupted external artifact is counted, not registered.
	UnregisterExternal(name)
	path := filepath.Join(dir, key+artifactFileSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-stream: the embedded trace can no longer reach its
	// terminator, which ReadArtifact must report.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := NewArtifactStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s3.SetLogger(quiet)
	if n, err := s3.RehydrateExternal(); err != nil || n != 0 {
		t.Fatalf("RehydrateExternal on corrupt artifact = (%d, %v), want (0, nil)", n, err)
	}
	if st := s3.Stats(); st.CorruptRegens != 1 {
		t.Errorf("CorruptRegens = %d, want 1", st.CorruptRegens)
	}
	if _, ok := ByName(name); ok {
		t.Error("corrupt artifact registered an external name")
	}
}
