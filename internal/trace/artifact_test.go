package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

const artTestInsts = 4000

// drain consumes a generator and returns its instructions.
func drain(g Generator) []Inst {
	var out []Inst
	var in Inst
	for g.Next(&in) {
		out = append(out, in)
	}
	return out
}

func sameStream(t *testing.T, label string, got, want []Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d differs:\n  got: %+v\n want: %+v", label, i, got[i], want[i])
		}
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	for _, name := range []string{"gcc2k", "mcf"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		want := Record(w.Build(artTestInsts), 0, 0)

		var buf bytes.Buffer
		n, err := WriteArtifact(&buf, name, artTestInsts, w.Build(artTestInsts))
		if err != nil {
			t.Fatalf("%s: WriteArtifact: %v", name, err)
		}
		if n != artTestInsts {
			t.Fatalf("%s: wrote %d instructions, want %d", name, n, artTestInsts)
		}

		gotName, gotInsts, rep, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadArtifact: %v", name, err)
		}
		if gotName != name || gotInsts != artTestInsts {
			t.Fatalf("%s: decoded identity %q/%d, want %q/%d", name, gotName, gotInsts, name, artTestInsts)
		}
		sameStream(t, name, drain(rep.Cursor()), want.Remaining())

		// The decoded Run-start memory image must match a fresh
		// generator's, or replayed runs would diverge from live ones.
		fresh := w.Build(artTestInsts)
		for _, addr := range []uint64{0, 64, 4096, 1 << 20} {
			if got, want := rep.Mem().Read(addr, 8), fresh.Mem().Read(addr, 8); got != want {
				t.Fatalf("%s: Mem[%#x] = %#x, want %#x", name, addr, got, want)
			}
		}
	}
}

// TestSaltedArtifactRoundTrip pins the salted-stream codec contract:
// an encode/decode round trip of a "name#salt" stream reproduces both
// the instruction sequence and the Run-start memory image of the live
// salted generator. The memory image is the regression surface — load
// values come from the backing image, so a fill seed derived from the
// bare name instead of the salted construction seed replays the wrong
// values while leaving the instruction sequence (and thus baselines)
// intact.
func TestSaltedArtifactRoundTrip(t *testing.T) {
	for _, stream := range []string{"gcc2k#1", "mcf#3"} {
		gen, ok := BuildStream(stream, artTestInsts)
		if !ok {
			t.Fatalf("unknown stream %q", stream)
		}
		want := Record(gen, 0, 0)

		live, _ := BuildStream(stream, artTestInsts)
		var buf bytes.Buffer
		if _, err := WriteArtifact(&buf, stream, artTestInsts, live); err != nil {
			t.Fatalf("%s: WriteArtifact: %v", stream, err)
		}
		gotName, _, rep, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadArtifact: %v", stream, err)
		}
		if gotName != stream {
			t.Fatalf("decoded identity %q, want %q", gotName, stream)
		}
		sameStream(t, stream, drain(rep.Cursor()), want.Remaining())

		fresh, _ := BuildStream(stream, artTestInsts)
		for _, addr := range []uint64{0, 64, 4096, 1 << 20} {
			if got, want := rep.Mem().Read(addr, 8), fresh.Mem().Read(addr, 8); got != want {
				t.Fatalf("%s: Mem[%#x] = %#x, want %#x (fill seed ignores the salt?)", stream, addr, got, want)
			}
		}

		// Distinct salts are distinct artifacts: content addresses must
		// not collide with the canonical stream's.
		if ArtifactKey(stream, artTestInsts) == ArtifactKey("gcc2k", artTestInsts) &&
			stream != "gcc2k" {
			t.Fatalf("salted stream %q shares the canonical artifact key", stream)
		}
	}
}

// maxRejectAlloc bounds what decoding one damaged artifact may
// allocate. The valid artifact the cases damage records artTestInsts
// instructions (about 256 KB), so the bound leaves room for that and
// the gzip state but not for the 2^40 instructions the hostile header
// claims.
const maxRejectAlloc = 4 << 20

// hostileArtifact returns a well-formed artifact header claiming 2^40
// instructions, followed by a trace stream header and no records.
func hostileArtifact(t testing.TB) []byte {
	t.Helper()
	raw := []byte(artifactMagic)
	raw = binary.AppendUvarint(raw, artifactVersion)
	raw = binary.AppendUvarint(raw, 1<<40)
	raw = binary.AppendUvarint(raw, uint64(len("gcc2k")))
	raw = append(raw, "gcc2k"...)
	raw = append(raw, traceMagic...)
	raw = binary.AppendUvarint(raw, traceVersion)
	raw = binary.AppendUvarint(raw, FillSeed("gcc2k"))
	return gzipBytes(t, raw)
}

func gzipBytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactRejectsCorruption: every damaged form of a valid artifact
// fails to decode — truncation, bit flips past the gzip header (whose
// mtime and OS bytes no checksum covers), bytes after the stream — and
// so does a header claiming 2^40 instructions over no records. None of
// them allocates more than maxRejectAlloc on the way to its error.
func TestArtifactRejectsCorruption(t *testing.T) {
	w, _ := ByName("gcc2k")
	var buf bytes.Buffer
	if _, err := WriteArtifact(&buf, w.Name, artTestInsts, w.Build(artTestInsts)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		d := bytes.Clone(data)
		d[i] ^= 0x10
		return d
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not an artifact")},
		{"truncated after the gzip header", data[:10]},
		{"truncated mid-stream", data[:len(data)/2]},
		{"truncated before the gzip trailer", data[:len(data)-8]},
		{"truncated by one byte", data[:len(data)-1]},
		{"bit flip in the artifact header", flip(12)},
		{"bit flip mid-stream", flip(len(data) / 2)},
		{"bit flip in the gzip checksum", flip(len(data) - 6)},
		{"bit flip in the gzip length", flip(len(data) - 2)},
		{"trailing garbage", append(bytes.Clone(data), "junk"...)},
		{"trailing zeros", append(bytes.Clone(data), 0, 0, 0, 0)},
		{"trailing data inside the stream", gzipBytes(t, append(bytes.Clone(raw), 0))},
		{"header claims 2^40 instructions over no records", hostileArtifact(t)},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, _, err := ReadArtifact(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxRejectAlloc {
			t.Errorf("%s: allocated %d bytes before failing, bound %d", c.name, got, maxRejectAlloc)
		}
	}
}

// FuzzReadArtifact: decoding arbitrary bytes, as PUT /v1/traces/{hash}
// does with a request body, never panics, and decoding is
// deterministic.
func FuzzReadArtifact(f *testing.F) {
	w, _ := ByName("gcc2k")
	var buf bytes.Buffer
	if _, err := WriteArtifact(&buf, w.Name, 500, w.Build(500)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(append(bytes.Clone(buf.Bytes()), "junk"...))
	f.Add(hostileArtifact(f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, insts, rep, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		name2, insts2, rep2, err := ReadArtifact(bytes.NewReader(data))
		if err != nil || name2 != name || insts2 != insts {
			t.Fatalf("second decode = (%q, %d, %v), first (%q, %d)", name2, insts2, err, name, insts)
		}
		sameStream(t, "second decode", drain(rep2), drain(rep))
	})
}

func TestArtifactKeyStable(t *testing.T) {
	// The content address is a wire format shared across processes and
	// releases; pin it so an accidental change (which would orphan every
	// existing cache) fails loudly.
	k := ArtifactKey("gcc2k", 20000)
	if len(k) != 16 || strings.ToLower(k) != k {
		t.Fatalf("ArtifactKey shape changed: %q", k)
	}
	if k2 := ArtifactKey("gcc2k", 20000); k2 != k {
		t.Fatalf("ArtifactKey not deterministic: %q vs %q", k, k2)
	}
	for _, other := range []string{ArtifactKey("mcf", 20000), ArtifactKey("gcc2k", 20001)} {
		if other == k {
			t.Fatalf("distinct specs share key %q", k)
		}
	}
}

func TestArtifactStoreMemoryReuse(t *testing.T) {
	s, err := NewArtifactStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ByName("gcc2k")
	want := Record(w.Build(artTestInsts), 0, 0)

	c1, err := s.Cursor(w.Name, artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Cursor(w.Name, artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, "cursor1", drain(c1), want.Remaining())
	sameStream(t, "cursor2", drain(c2), want.Remaining())

	if st := s.Stats(); st.Generated != 1 || st.MemoryHits != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after two cursors: %+v", st)
	}
}

func TestArtifactStoreConcurrentCursors(t *testing.T) {
	// Cursors share one recording (instruction slice and Run-start
	// image); replaying them concurrently must be race-free (this test
	// matters under -race) and produce identical streams.
	s, _ := NewArtifactStore("", 0)
	w, _ := ByName("mcf")
	want := Record(w.Build(artTestInsts), 0, 0)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := s.Cursor(w.Name, artTestInsts)
			if err != nil {
				errs <- err.Error()
				return
			}
			got := drain(cur)
			if len(got) != want.Len() {
				errs <- "short stream"
				return
			}
			for j, in := range got {
				if in != want.Remaining()[j] {
					errs <- "stream diverged"
					return
				}
			}
			// Concurrent reads of the shared Run-start image go through
			// each consumer's own copy, as the pipeline does.
			if img := cur.Mem().Clone(); img.Read(64, 8) != want.Mem().Read(64, 8) {
				errs <- "memory image diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := s.Stats(); st.Generated != 1 {
		t.Fatalf("singleflight failed: %+v", st)
	}
}

func TestArtifactStoreDiskReuse(t *testing.T) {
	w, _ := ByName("gcc2k")
	want := Record(w.Build(artTestInsts), 0, 0)

	// The disk tier holds uploaded traces: a registered external
	// recording is persisted, and a later process reads it back.
	t.Run("upload", func(t *testing.T) {
		const ext = "ext:diskreuse"
		if _, err := RegisterExternal(ext, want, true); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { UnregisterExternal(ext) })
		dir := t.TempDir()

		s1, err := NewArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Cursor(ext, artTestInsts); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*"+artifactFileSuffix))
		if len(files) != 1 {
			t.Fatalf("cache dir holds %d artifacts, want 1", len(files))
		}

		// A second store over the same directory (a later process) must
		// load from disk, not regenerate.
		s2, err := NewArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := s2.Cursor(ext, artTestInsts)
		if err != nil {
			t.Fatal(err)
		}
		sameStream(t, "disk cursor", drain(cur), want.Remaining())
		if st := s2.Stats(); st.Generated != 0 || st.DiskHits != 1 {
			t.Fatalf("second store stats: %+v", st)
		}

		// A corrupt cache file is regenerated over, not trusted.
		if err := os.WriteFile(files[0], []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
		s3, _ := NewArtifactStore(dir, 0)
		s3.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
		cur, err = s3.Cursor(ext, artTestInsts)
		if err != nil {
			t.Fatal(err)
		}
		sameStream(t, "regenerated cursor", drain(cur), want.Remaining())
		if st := s3.Stats(); st.Generated != 1 || st.DiskHits != 0 {
			t.Fatalf("corrupt-file store stats: %+v", st)
		}
	})

	// Synthetic streams never touch the directory: neither a generated
	// nor a received one is written, and a later process regenerates
	// rather than read a synthetic artifact an older release left there.
	t.Run("synthetic", func(t *testing.T) {
		dir := t.TempDir()
		s1, err := NewArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Cursor(w.Name, artTestInsts); err != nil {
			t.Fatal(err)
		}
		src, _ := NewArtifactStore("", 0)
		key, data, err := src.Artifact("mcf", artTestInsts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Put(key, data); err != nil {
			t.Fatal(err)
		}
		if st := s1.Stats(); st.Generated != 1 || st.Received != 1 {
			t.Fatalf("first store stats: %+v", st)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("cache dir holds %d entries for synthetic streams, want 0", len(entries))
		}

		key = ArtifactKey(w.Name, artTestInsts)
		f, err := os.Create(filepath.Join(dir, key+artifactFileSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteArtifact(f, w.Name, artTestInsts, want.Cursor()); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := NewArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s2.Export(key); ok {
			t.Fatal("Export served a synthetic artifact from disk")
		}
		cur, err := s2.Cursor(w.Name, artTestInsts)
		if err != nil {
			t.Fatal(err)
		}
		sameStream(t, "regenerated cursor", drain(cur), want.Remaining())
		if st := s2.Stats(); st.Generated != 1 || st.DiskHits != 0 {
			t.Fatalf("second store stats: %+v", st)
		}
	})
}

func TestArtifactStorePutExport(t *testing.T) {
	src, _ := NewArtifactStore("", 0)
	w, _ := ByName("mcf")
	key, data, err := src.Artifact(w.Name, artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	if key != ArtifactKey(w.Name, artTestInsts) {
		t.Fatalf("Artifact returned key %q, want %q", key, ArtifactKey(w.Name, artTestInsts))
	}

	dst, _ := NewArtifactStore("", 0)
	if err := dst.Put(key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	cur, err := dst.Cursor(w.Name, artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	want := Record(w.Build(artTestInsts), 0, 0)
	sameStream(t, "received cursor", drain(cur), want.Remaining())
	if st := dst.Stats(); st.Generated != 0 || st.Received != 1 || st.MemoryHits != 1 {
		t.Fatalf("receiver stats: %+v", st)
	}

	if got, ok := dst.Export(key); !ok || len(got) == 0 {
		t.Fatal("Export of resident artifact failed")
	}
	if _, ok := dst.Export("0000000000000000"); ok {
		t.Fatal("Export of unknown key succeeded")
	}

	// A blob stored under the wrong address must be rejected.
	if err := dst.Put(ArtifactKey(w.Name, artTestInsts+1), data); err == nil {
		t.Fatal("Put accepted content under a mismatched key")
	}
	if err := dst.Put(key, []byte("garbage")); err == nil {
		t.Fatal("Put accepted undecodable content")
	}
}

func TestArtifactStoreEviction(t *testing.T) {
	// Budget fits two recordings; the third evicts the least recently
	// used, and re-requesting it regenerates.
	s, err := NewArtifactStore("", 2*artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"gcc2k", "mcf", "xalancbmk"}
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			t.Fatalf("unknown workload %q", n)
		}
		if _, err := s.Cursor(n, artTestInsts); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Generated != 3 {
		t.Fatalf("stats after three distinct cursors: %+v", st)
	}
	if _, err := s.Cursor(names[0], artTestInsts); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Generated != 4 || st.MemoryHits != 0 {
		t.Fatalf("evicted recording not regenerated: %+v", st)
	}
	// The two resident recordings are still served from memory.
	if _, err := s.Cursor(names[2], artTestInsts); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MemoryHits != 1 {
		t.Fatalf("resident recording not reused: %+v", st)
	}
}

func TestArtifactStoreOversizeRefused(t *testing.T) {
	// Recording is eager and not cancellable, so a workload whose
	// instruction budget exceeds the resident budget must be refused
	// up front (callers fall back to the lazy live generator) rather
	// than materialized.
	s, err := NewArtifactStore("", artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cursor("gcc2k", artTestInsts+1); !errors.Is(err, ErrOversize) {
		t.Fatalf("Cursor(insts > budget) err = %v, want ErrOversize", err)
	}
	if _, _, err := s.Artifact("gcc2k", artTestInsts+1); !errors.Is(err, ErrOversize) {
		t.Fatalf("Artifact(insts > budget) err = %v, want ErrOversize", err)
	}
	if st := s.Stats(); st.Generated != 0 {
		t.Fatalf("oversize request generated anyway: %+v", st)
	}
	// A shipped artifact past the budget is refused for the same
	// reason a generated one is never produced.
	small, err := NewArtifactStore("", DefaultArtifactBudget)
	if err != nil {
		t.Fatal(err)
	}
	key, data, err := small.Artifact("gcc2k", artTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewArtifactStore("", artTestInsts-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Put(key, data); !errors.Is(err, ErrOversize) {
		t.Fatalf("Put(insts > budget) err = %v, want ErrOversize", err)
	}
	// The budget check reads only the header: a stream that would fail
	// to decode is refused as oversize, not decoded first.
	if err := tight.Put(ArtifactKey("gcc2k", 1<<40), hostileArtifact(t)); !errors.Is(err, ErrOversize) {
		t.Fatalf("Put(header claiming 2^40 insts) err = %v, want ErrOversize", err)
	}
}
