package trace

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrOversize reports that a workload's instruction budget exceeds the
// store's resident budget, so the store refuses to materialize it.
// Recording is eager and not cancellable, so an unbounded request would
// hold a worker (and the memory for the full stream) hostage; callers
// fall back to live generation, which is lazy and honors run
// cancellation.
var ErrOversize = errors.New("trace: artifact exceeds store budget")

// DefaultArtifactBudget is the in-memory retention budget of an
// ArtifactStore, in recorded instructions, when the caller passes 0. At
// 40 bytes per recorded instruction (one Inst) this keeps resident
// recordings under ~160 MB while holding dozens of sweep-sized traces.
const DefaultArtifactBudget = 4_000_000

// ArtifactStats counts how an ArtifactStore satisfied Cursor and Put
// requests since creation.
type ArtifactStats struct {
	// MemoryHits counts cursors served from a resident recording.
	MemoryHits uint64
	// DiskHits counts cursors whose recording was loaded from the
	// store's cache directory, which holds uploaded traces only.
	DiskHits uint64
	// Generated counts recordings produced by running the stream's
	// generator: every miss on a synthetic stream, which is cheaper to
	// regenerate than to decode, and an uploaded trace recorded at a
	// budget the store held neither in memory nor on disk.
	Generated uint64
	// Received counts artifacts installed via Put or PutRecording
	// (shipped by a coordinator or uploaded through the API).
	Received uint64
	// CorruptRegens counts disk cache files that failed to decode (or
	// decoded to a different identity than their address) and were
	// regenerated over. A non-zero value means the cache directory is
	// losing integrity — disk fault, torn write from a foreign process,
	// or a mismatched artifact copied in by hand.
	CorruptRegens uint64
}

// artifactRec is one resident recording plus the identity it was
// addressed under.
type artifactRec struct {
	key   string
	name  string
	insts uint64
	rep   *Replay
}

// ArtifactStore is a content-addressed cache of recorded workload
// streams. It layers three sources, tried in order: resident
// recordings (shared, handed out as independent cursors), a disk
// directory of compressed artifacts keyed by content address, and live
// generation from the named workload's builder. Only streams that
// cannot be regenerated (uploaded traces, see Regenerable) use the
// disk tier; a synthetic stream is resident or regenerated.
// Materialization is singleflighted per address, so concurrent
// requests for the same spec cost one run of the generator.
//
// All methods are safe for concurrent use. Generation and disk I/O run
// outside the store lock.
type ArtifactStore struct {
	dir    string // "" = memory-only
	budget uint64 // resident budget in recorded instructions

	mu       sync.Mutex
	recs     map[string]*artifactRec
	order    []string // keys, least recently used first
	held     uint64   // recorded instructions resident across recs
	inflight map[string]chan struct{}
	stats    ArtifactStats

	// log receives warnings the store would otherwise swallow (corrupt
	// cache files). Defaults to the process logger; SetLogger overrides.
	log *slog.Logger
}

// NewArtifactStore opens a store backed by dir (created if missing; ""
// for a memory-only store). budgetInsts bounds resident recordings in
// recorded instructions; 0 means DefaultArtifactBudget. The directory
// persists uploaded traces, which nothing else could rebuild after a
// restart, and is not budgeted. Synthetic streams are never read from
// or written to it: generating one is cheaper than decoding its
// artifact, so after eviction or restart the store regenerates it.
func NewArtifactStore(dir string, budgetInsts uint64) (*ArtifactStore, error) {
	if budgetInsts == 0 {
		budgetInsts = DefaultArtifactBudget
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("trace: artifact store: %w", err)
		}
	}
	return &ArtifactStore{
		dir:      dir,
		budget:   budgetInsts,
		recs:     make(map[string]*artifactRec),
		inflight: make(map[string]chan struct{}),
		log:      slog.Default(),
	}, nil
}

// SetLogger directs the store's warnings (corrupt cache files) to log.
// Call before the store sees traffic.
func (s *ArtifactStore) SetLogger(log *slog.Logger) {
	if log != nil {
		s.log = log
	}
}

// Stats returns a snapshot of the store's counters.
func (s *ArtifactStore) Stats() ArtifactStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Cursor returns a replay cursor over the recorded stream of the named
// workload at the given budget, materializing the recording (from
// memory, from disk for an uploaded trace, or by live generation, in
// that order) if needed. Each call gets an independent position over
// the shared recording, so cursors can replay concurrently. Requests
// larger than the store budget return ErrOversize — callers fall back
// to the live generator.
func (s *ArtifactStore) Cursor(name string, insts uint64) (*Replay, error) {
	rec, err := s.ensure(name, insts)
	if err != nil {
		return nil, err
	}
	return rec.rep.Cursor(), nil
}

// Artifact returns the content address and encoded bytes of the named
// workload's artifact, materializing the recording first if needed.
// Coordinators use it to ship uploaded traces to workers, which cannot
// regenerate them.
func (s *ArtifactStore) Artifact(name string, insts uint64) (string, []byte, error) {
	rec, err := s.ensure(name, insts)
	if err != nil {
		return "", nil, err
	}
	if s.persists(name) {
		if data, err := os.ReadFile(s.path(rec.key)); err == nil {
			return rec.key, data, nil
		}
	}
	data, err := encodeArtifact(rec.name, rec.insts, rec.rep)
	return rec.key, data, err
}

// Export returns the encoded bytes of the artifact stored under key,
// if present in memory or on disk. Unlike Artifact it never generates:
// a content address alone does not say which workload to run. A
// synthetic stream is therefore exported only while it is resident; a
// synthetic artifact an older release left on disk is not served.
func (s *ArtifactStore) Export(key string) ([]byte, bool) {
	s.mu.Lock()
	rec := s.recs[key]
	s.mu.Unlock()
	if rec != nil {
		if data, err := encodeArtifact(rec.name, rec.insts, rec.rep); err == nil {
			return data, true
		}
	}
	if s.dir != "" {
		if data, err := os.ReadFile(s.path(key)); err == nil {
			if name, _, err := peekArtifact(bytes.NewReader(data)); err == nil && !Regenerable(name) {
				return data, true
			}
		}
	}
	return nil, false
}

// Put installs an externally produced artifact under key, verifying
// that the content actually hashes to that address before accepting
// it. The header is checked against the address and the store budget
// before the stream is decoded, so a refused artifact costs no decode.
// The recording becomes resident; an uploaded trace is also persisted
// for later processes when the store is disk-backed.
func (s *ArtifactStore) Put(key string, data []byte) error {
	name, insts, err := peekArtifact(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if got := ArtifactKey(name, insts); got != key {
		return fmt.Errorf("trace: artifact content is %s (workload %q, %d insts), stored under %s", got, name, insts, key)
	}
	if insts > s.budget {
		return fmt.Errorf("%w (%d insts > budget %d)", ErrOversize, insts, s.budget)
	}
	_, _, rep, err := ReadArtifact(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if s.persists(name) {
		if err := s.persistBytes(key, data); err != nil {
			return err
		}
	}
	// A shipped external stream also registers the workload name, so a
	// sweep point referencing "ext:<hash>" validates on this node after
	// pre-shipping even though the node never saw the original upload.
	// An artifact that recorded fewer instructions than its addressed
	// budget is the whole trace (the stream ended early); one that
	// exactly fills the budget may be a prefix of a longer trace, so it
	// registers as incomplete and yields to longer recordings.
	if base, _ := SplitStreamName(name); IsExternalName(base) {
		if _, err := RegisterExternal(base, rep, insts > uint64(rep.Len())); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.install(&artifactRec{key: key, name: name, insts: insts, rep: rep})
	s.stats.Received++
	s.mu.Unlock()
	return nil
}

// PutRecording installs an in-memory recording as the artifact of the
// named workload at its full recorded length, persisting it like Put
// does, and returns its content address. This is the upload path: a
// daemon that converted an external trace registers the recording here
// so later sweeps find it resident and restarts recover it from disk.
func (s *ArtifactStore) PutRecording(name string, rep *Replay) (string, error) {
	insts := uint64(rep.Len())
	if insts == 0 {
		return "", fmt.Errorf("trace: refusing to store empty recording for %q", name)
	}
	if insts > s.budget {
		return "", fmt.Errorf("%w (%d insts > budget %d)", ErrOversize, insts, s.budget)
	}
	key := ArtifactKey(name, insts)
	if s.persists(name) {
		data, err := encodeArtifact(name, insts, rep)
		if err != nil {
			return "", err
		}
		if err := s.persistBytes(key, data); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	s.install(&artifactRec{key: key, name: name, insts: insts, rep: rep})
	s.stats.Received++
	s.mu.Unlock()
	return key, nil
}

// RehydrateExternal scans the store's cache directory for artifacts of
// external workloads and re-registers their names, so specs referencing
// "ext:<hash>" validate again after a restart. Artifacts whose content
// does not hash back to their filename are skipped (and counted as
// corrupt). Returns the number of names registered.
func (s *ArtifactStore) RehydrateExternal() (int, error) {
	if s.dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	registered := 0
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), artifactFileSuffix)
		if !ok || e.IsDir() {
			continue
		}
		// Cheap pre-filter: decode only the header far enough to see the
		// workload name, then fully decode external ones.
		f, err := os.Open(s.path(key))
		if err != nil {
			continue
		}
		name, _, peekErr := peekArtifact(f)
		f.Close()
		if peekErr != nil || !IsExternalName(name) {
			continue
		}
		f, err = os.Open(s.path(key))
		if err != nil {
			continue
		}
		gotName, gotInsts, rep, err := ReadArtifact(f)
		f.Close()
		if err != nil || ArtifactKey(gotName, gotInsts) != key {
			s.mu.Lock()
			s.stats.CorruptRegens++
			s.mu.Unlock()
			s.log.Warn("external trace artifact failed rehydration", "path", s.path(key), "err", err)
			continue
		}
		if ok, err := RegisterExternal(gotName, rep, gotInsts > uint64(rep.Len())); err == nil && ok {
			registered++
		}
	}
	return registered, nil
}

// ensure returns the resident recording for (name, insts), loading or
// generating it under a per-key singleflight so concurrent callers
// share one materialization.
func (s *ArtifactStore) ensure(name string, insts uint64) (*artifactRec, error) {
	if insts > s.budget {
		return nil, fmt.Errorf("%w (%d insts > budget %d)", ErrOversize, insts, s.budget)
	}
	key := ArtifactKey(name, insts)
	for {
		s.mu.Lock()
		if rec, ok := s.recs[key]; ok {
			s.touch(key)
			s.stats.MemoryHits++
			s.mu.Unlock()
			return rec, nil
		}
		if ch, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			<-ch
			continue // the winner installed it (or failed); re-check
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		s.mu.Unlock()

		rec, fromDisk, err := s.load(key, name, insts)
		s.mu.Lock()
		delete(s.inflight, key)
		close(ch)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.install(rec)
		if fromDisk {
			s.stats.DiskHits++
		} else {
			s.stats.Generated++
		}
		s.mu.Unlock()
		return rec, nil
	}
}

// load materializes a recording outside the store lock: for an
// uploaded trace from the cache directory when a valid artifact exists
// there, otherwise by running the stream's generator. Freshly
// generated uploads are persisted best-effort — a full disk must not
// fail the run the recording was materialized for.
func (s *ArtifactStore) load(key, name string, insts uint64) (rec *artifactRec, fromDisk bool, err error) {
	persist := s.persists(name)
	if persist {
		if f, err := os.Open(s.path(key)); err == nil {
			gotName, gotInsts, rep, err := ReadArtifact(f)
			f.Close()
			if err == nil && gotName == name && gotInsts == insts {
				return &artifactRec{key: key, name: name, insts: insts, rep: rep}, true, nil
			}
			// Corrupt or mismatched cache file: count it, say which file,
			// and fall through to regenerate over it. Without the counter
			// this path is invisible — a flaky disk looks like a slightly
			// colder cache.
			if err == nil {
				err = fmt.Errorf("content is workload %q at %d insts, expected %q at %d", gotName, gotInsts, name, insts)
			}
			s.mu.Lock()
			s.stats.CorruptRegens++
			s.mu.Unlock()
			s.log.Warn("trace artifact cache file corrupt, regenerating",
				"path", s.path(key), "workload", name, "insts", insts, "err", err)
		}
	}
	gen, ok := BuildStream(name, insts)
	if !ok {
		return nil, false, fmt.Errorf("trace: artifact store: unknown workload %q", name)
	}
	rep := Record(gen, 0, insts)
	rec = &artifactRec{key: key, name: name, insts: insts, rep: rep}
	if persist {
		if data, err := encodeArtifact(name, insts, rep); err == nil {
			_ = s.persistBytes(key, data)
		}
	}
	return rec, false, nil
}

// persists reports whether the stream's artifact belongs in the cache
// directory: the store is disk-backed and the stream cannot be
// regenerated.
func (s *ArtifactStore) persists(stream string) bool {
	return s.dir != "" && !Regenerable(stream)
}

// install makes rec resident and evicts least-recently-used recordings
// past the budget. Outstanding cursors keep evicted recordings alive;
// eviction only stops new cursors from sharing them. Callers hold s.mu.
func (s *ArtifactStore) install(rec *artifactRec) {
	if _, ok := s.recs[rec.key]; ok {
		return // raced with another installer; keep the incumbent
	}
	s.recs[rec.key] = rec
	s.order = append(s.order, rec.key)
	s.held += uint64(rec.rep.Len())
	for s.held > s.budget && len(s.order) > 1 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if old := s.recs[oldest]; old != nil {
			s.held -= uint64(old.rep.Len())
			delete(s.recs, oldest)
		}
	}
}

// touch moves key to the most-recently-used end. Callers hold s.mu.
func (s *ArtifactStore) touch(key string) {
	for i, k := range s.order {
		if k == key {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = key
			return
		}
	}
}

// persistBytes atomically writes an encoded artifact into the cache
// directory (temp file + rename, so concurrent processes sharing the
// directory never observe a partial artifact).
func (s *ArtifactStore) persistBytes(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// path returns the cache file for a content address.
func (s *ArtifactStore) path(key string) string {
	return filepath.Join(s.dir, key+artifactFileSuffix)
}
