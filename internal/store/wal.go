// Package store is the durability layer of the job platform: an
// append-only write-ahead log of job and sweep lifecycle events plus a
// result warehouse, both keyed by the canonical spec hash of
// internal/spec. A daemon (or cluster coordinator) opened on the same
// data directory after a crash replays the log, re-enqueues every
// accepted-but-unfinished piece of work, and serves every finished
// result it ever produced — the spec-hash idempotency that makes
// cluster retries safe is exactly what makes replayed re-execution
// safe here.
//
// Everything is stdlib-only and crash-oriented: records are
// length+CRC framed so a torn tail write is detected and discarded,
// appends are fsynced in group-commit batches before the caller is
// told the record is durable, segments rotate at a size threshold, and
// opening a directory compacts the history down to the records that
// still matter.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Frame layout: 4-byte little-endian payload length, 4-byte CRC-32C of
// the payload, then the payload itself. A record whose length runs past
// the end of the file or whose CRC does not match marks the torn tail
// of a crashed write; replay stops there and Open truncates the rest.
const frameHeader = 8

// maxRecordBytes rejects absurd frames during replay: a length field
// beyond this is corruption, not a record.
const maxRecordBytes = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is the append-only log. Append is safe for concurrent use;
// records are durable (written and fsynced) when Append returns.
// Concurrent appenders share fsyncs: whichever appender reaches the
// sync path first syncs every record written so far and the rest
// return without their own disk round trip (group commit).
type WAL struct {
	dir         string
	maxSegBytes int64
	observe     func(seconds float64) // fsync latency hook, may be nil

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when syncedSeq advances
	f        *os.File
	bw       *bufio.Writer
	seg      int   // current segment number
	segBytes int64 // bytes written to the current segment
	nextSeq  uint64
	synced   uint64 // all seqs <= synced are on disk
	syncing  bool   // an appender is currently inside Sync
	err      error  // sticky: a failed write or sync poisons the log
	closed   bool
}

// WALOptions tunes OpenWAL. Zero values select defaults.
type WALOptions struct {
	// SegmentBytes rotates the log to a fresh segment file once the
	// current one exceeds this size (default 8 MiB).
	SegmentBytes int64

	// FsyncObserver, when set, receives the duration in seconds of
	// every group-commit fsync on the append path — the latency every
	// durable accept pays. Must be safe for concurrent use; it is
	// called outside the WAL lock.
	FsyncObserver func(seconds float64)
}

func (o *WALOptions) applyDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
}

func segmentName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

// segmentNumber parses a segment file name, returning -1 for files that
// are not WAL segments.
func segmentNumber(name string) int {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"))
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		if n := segmentNumber(e.Name()); n >= 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// OpenWAL opens (creating if needed) the log in dir and replays every
// record into events, oldest first. A torn tail — a record cut short or
// CRC-corrupted by a crash mid-write — ends the replay of its segment;
// the segment is truncated to the last good record so the log is clean
// for appending.
func OpenWAL(dir string, opts WALOptions) (*WAL, []Event, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating wal dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: listing wal segments: %w", err)
	}
	var events []Event
	for _, n := range segs {
		path := filepath.Join(dir, segmentName(n))
		_, good, err := readFrames(path, func(ev Event) bool {
			events = append(events, ev)
			return true
		})
		if err != nil {
			return nil, nil, err
		}
		// Only the last segment may legitimately carry a torn tail;
		// truncate it away so appends continue from a clean frame edge.
		if n == segs[len(segs)-1] {
			if err := truncateTo(path, good); err != nil {
				return nil, nil, err
			}
		}
	}
	w := &WAL{dir: dir, maxSegBytes: opts.SegmentBytes, observe: opts.FsyncObserver}
	w.cond = sync.NewCond(&w.mu)
	w.seg = 1
	if len(segs) > 0 {
		w.seg = segs[len(segs)-1]
	}
	if err := w.openSegment(w.seg, true); err != nil {
		return nil, nil, err
	}
	return w, events, nil
}

// openSegment opens segment n for appending (append = continue an
// existing file, otherwise create fresh) and makes it current.
func (w *WAL) openSegment(n int, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !appendTo {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(n)), flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening wal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat wal segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.seg = n
	w.segBytes = st.Size()
	return nil
}

// readFrames decodes the frames of the file at path, oldest first, as
// decodeFrames does. A missing file holds no records.
func readFrames[T any](path string, each func(T) bool) (n int, good int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	n, good = decodeFrames(bufio.NewReaderSize(f, 64<<10), each)
	return n, good, nil
}

// decodeFrames decodes the frames r holds, oldest first, handing each
// decoded record to each. It stops at the first torn, CRC-corrupt or
// undecodable frame, or where each rejects a record, and returns the
// number of records taken and the byte offset of the end of the last
// of them.
func decodeFrames[T any](r io.Reader, each func(T) bool) (n int, good int64) {
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // EOF or torn header
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		if size == 0 || size > maxRecordBytes {
			break // corrupt length
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			break // corrupt payload
		}
		var rec T
		if json.Unmarshal(payload, &rec) != nil || !each(rec) {
			break // framed but undecodable or invalid: treat as tail corruption
		}
		n++
		good += frameHeader + int64(size)
	}
	return n, good
}

// writeFrame writes v to w as one frame (its JSON encoding behind the
// length and CRC header) and returns the frame's size in bytes.
func writeFrame(w io.Writer, v any) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("store: encoding record: %w", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("store: write: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("store: write: %w", err)
	}
	return frameHeader + len(payload), nil
}

// truncateTo clips a segment to size when it carries bytes past the
// last intact record.
func truncateTo(path string, size int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() == size {
		return nil
	}
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("store: truncating torn wal tail: %w", err)
	}
	return nil
}

// Append writes ev and returns once it is durable (flushed and fsynced).
// Batches form naturally under concurrency: every appender that arrives
// while one fsync is in flight is covered by the next, so N concurrent
// appends cost far fewer than N disk syncs.
func (w *WAL) Append(ev Event) error {
	var frame bytes.Buffer
	if _, err := writeFrame(&frame, ev); err != nil {
		return err
	}
	buf := frame.Bytes()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal is closed")
	}
	if w.err != nil {
		return w.err
	}
	if w.segBytes > 0 && w.segBytes+int64(len(buf)) > w.maxSegBytes {
		// Rotation closes the current file; wait out any fsync in
		// flight on it first (syncs drop w.mu around the disk call).
		for w.syncing && w.err == nil {
			w.cond.Wait()
		}
		if w.closed {
			return fmt.Errorf("store: wal is closed")
		}
		if w.err != nil {
			return w.err
		}
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return err
		}
	}
	if _, err := w.bw.Write(buf); err != nil {
		w.err = fmt.Errorf("store: wal write: %w", err)
		return w.err
	}
	w.segBytes += int64(len(buf))
	w.nextSeq++
	seq := w.nextSeq
	return w.syncToLocked(seq)
}

// syncToLocked blocks until seq is durable, performing the flush+fsync
// itself if no other appender is already doing one that will cover seq.
// Caller holds w.mu; it is released during the fsync.
func (w *WAL) syncToLocked(seq uint64) error {
	for w.synced < seq && w.err == nil {
		if w.syncing {
			// Another appender's fsync is in flight; it may have started
			// before our record hit the buffer, so re-check on wake.
			w.cond.Wait()
			continue
		}
		w.syncing = true
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("store: wal flush: %w", err)
			break
		}
		target := w.nextSeq // everything buffered so far
		f := w.f
		w.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		if w.observe != nil {
			w.observe(time.Since(start).Seconds())
		}
		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("store: wal fsync: %w", err)
		}
		if w.err == nil && target > w.synced {
			w.synced = target
		}
		w.syncing = false
		w.cond.Broadcast()
	}
	if w.err != nil {
		w.syncing = false
		w.cond.Broadcast()
		return w.err
	}
	return nil
}

// rotateLocked seals the current segment (flush + fsync) and starts the
// next one. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: wal flush at rotation: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync at rotation: %w", err)
	}
	w.synced = w.nextSeq
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing sealed wal segment: %w", err)
	}
	return w.openSegment(w.seg+1, false)
}

// Compact rewrites the log so it contains exactly live, discarding the
// full history. Called at open time, after the owner has folded the
// replayed events down to the records that still matter (pending jobs,
// unfinished sweeps); the settled majority of the history is dropped.
// Not safe concurrently with Append — compaction happens before the
// log's owner starts serving.
func (w *WAL) Compact(live []Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal is closed")
	}
	// Write the survivors into a fresh segment beyond every existing
	// one, fsync it, then delete the history. A crash between those
	// steps leaves both the old segments and the new one; replay folds
	// the duplicated events idempotently, so recovery is unharmed.
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: wal flush before compaction: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing wal segment before compaction: %w", err)
	}
	oldSegs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	next := 1
	if len(oldSegs) > 0 {
		next = oldSegs[len(oldSegs)-1] + 1
	}
	if err := w.openSegment(next, false); err != nil {
		return err
	}
	for _, ev := range live {
		n, err := writeFrame(w.bw, ev)
		if err != nil {
			return err
		}
		w.segBytes += int64(n)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: wal flush during compaction: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync during compaction: %w", err)
	}
	for _, n := range oldSegs {
		if n == next {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, segmentName(n))); err != nil {
			return fmt.Errorf("store: removing compacted segment: %w", err)
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var firstErr error
	if err := w.bw.Flush(); err != nil {
		firstErr = err
	}
	if err := w.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	w.cond.Broadcast()
	return firstErr
}
