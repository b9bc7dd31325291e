package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// keyedFile is an append-only file of CRC-framed records in which the
// latest record for a key is the live one. The warehouse (keyed by
// spec hash) and the flight store (keyed by job ID) are both one.
// Opening truncates a torn tail, evicts the oldest live records past
// the cap, and rewrites the file compacted when dead records (superseded
// or evicted) outnumber live ones. Safe for concurrent use.
type keyedFile[T any] struct {
	path    string
	key     func(T) string
	maxLive int // 0 = unbounded

	mu    sync.Mutex
	f     *os.File
	bw    *bufio.Writer
	index map[string]T
	order []string // insertion order of live keys, oldest first
}

// openKeyedFile opens (creating if needed) the keyed file name in dir
// and loads its live records. A record with an empty key ends the
// intact prefix, as a corrupt frame does. maxLive <= 0 keeps every live
// record.
func openKeyedFile[T any](dir, name string, key func(T) string, maxLive int) (*keyedFile[T], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, name)
	k := &keyedFile[T]{path: path, key: key, maxLive: maxLive, index: make(map[string]T)}
	total, good, err := readFrames(path, func(rec T) bool {
		if key(rec) == "" {
			return false
		}
		k.insert(rec)
		return true
	})
	if err != nil {
		return nil, err
	}
	if _, statErr := os.Stat(path); statErr == nil {
		if err := truncateTo(path, good); err != nil {
			return nil, err
		}
	}
	k.evict()
	if dead := total - len(k.index); dead > len(k.index) {
		if err := k.compact(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	k.f = f
	k.bw = bufio.NewWriterSize(f, 64<<10)
	return k, nil
}

// insert places rec in the index, tracking insertion order.
func (k *keyedFile[T]) insert(rec T) {
	key := k.key(rec)
	if _, ok := k.index[key]; !ok {
		k.order = append(k.order, key)
	}
	k.index[key] = rec
}

// evict drops the oldest live records past the cap.
func (k *keyedFile[T]) evict() {
	for k.maxLive > 0 && len(k.order) > k.maxLive {
		delete(k.index, k.order[0])
		k.order = k.order[1:]
	}
}

// compact rewrites the file with only the live records. Crash-safe:
// the rewrite goes to a temp file that is renamed over the original.
func (k *keyedFile[T]) compact() error {
	tmp := k.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s compaction file: %w", k.path, err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	for _, key := range k.order {
		if _, err := writeFrame(bw, k.index[key]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: flushing %s compaction: %w", k.path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s compaction: %w", k.path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, k.path); err != nil {
		return fmt.Errorf("store: installing compacted %s: %w", k.path, err)
	}
	return nil
}

// put stores rec as the live record for its key, durably (flushed and
// fsynced) before returning, then evicts past the cap. The caller has
// checked that the key is not empty.
func (k *keyedFile[T]) put(rec T) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.f == nil {
		return fmt.Errorf("store: %s is closed", k.path)
	}
	if _, err := writeFrame(k.bw, rec); err != nil {
		return err
	}
	if err := k.bw.Flush(); err != nil {
		return fmt.Errorf("store: %s flush: %w", k.path, err)
	}
	if err := k.f.Sync(); err != nil {
		return fmt.Errorf("store: %s fsync: %w", k.path, err)
	}
	k.insert(rec)
	k.evict()
	return nil
}

// get returns the live record for key.
func (k *keyedFile[T]) get(key string) (T, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	rec, ok := k.index[key]
	return rec, ok
}

// len returns the number of live records.
func (k *keyedFile[T]) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.index)
}

// newestFirst calls each on the live records, most recently inserted
// first, until each returns false. each runs under k's lock, so it must
// not call k.
func (k *keyedFile[T]) newestFirst(each func(T) bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := len(k.order) - 1; i >= 0; i-- {
		if !each(k.index[k.order[i]]) {
			return
		}
	}
}

// close flushes and closes the file. Further puts fail.
func (k *keyedFile[T]) close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.f == nil {
		return nil
	}
	var firstErr error
	if err := k.bw.Flush(); err != nil {
		firstErr = err
	}
	if err := k.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := k.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	k.f = nil
	return firstErr
}
