package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// Trace artifacts are the content-addressed, compressed form of a
// recorded workload stream (see DESIGN.md §13.1). An artifact is
// addressed by the hash of the workload-spec fields that fully
// determine the stream — the workload name and the instruction budget —
// so any two processes that agree on those fields agree on the address,
// and a stream generated once can be reused by every later run, server
// job, or sweep worker that asks for the same spec.
//
// On-disk layout, everything inside a single gzip stream:
//
//	"LVPA" | uvarint version (1) | uvarint insts |
//	uvarint len(name) | name bytes | LVPT trace stream (tracefile.go)
//
// The header repeats the addressed fields so an artifact is
// self-describing: a receiver can verify that a blob's content matches
// the address it was stored under without trusting the sender. The
// insts field is the addressed budget, not a length claim — a workload
// whose stream legitimately ends early records fewer instructions, and
// stream-length integrity comes from the LVPT framing's terminator.
const (
	artifactMagic   = "LVPA"
	artifactVersion = 1

	// maxArtifactNameLen bounds the embedded workload name; real
	// workload names are a handful of bytes, so anything larger is a
	// corrupt or hostile header.
	maxArtifactNameLen = 256

	// artifactFileSuffix is the cache-directory filename suffix:
	// "<content address>" + suffix.
	artifactFileSuffix = ".lvpt.gz"
)

// ArtifactKey returns the content address for the recorded stream of
// the named workload at the given instruction budget: the first eight
// bytes, hex encoded, of the SHA-256 of the canonical JSON encoding of
// the determining fields. The encoding mirrors the canonical-spec
// hashing in internal/spec (sorted keys, no insignificant whitespace)
// so the address is stable across processes and releases.
func ArtifactKey(name string, insts uint64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf(`{"insts":%d,"workload":%q}`, insts, name)))
	return hex.EncodeToString(sum[:8])
}

// WriteArtifact drains gen into w as a compressed artifact for the
// named workload and returns the number of instructions written. The
// embedded LVPT stream records the generator's own memory image — seed
// only for synthetic streams (whose Run-start footprint is empty), seed
// plus explicit pre-image words for external traces — so the reader's
// reconstructed Run-start image matches the generator's exactly.
func WriteArtifact(w io.Writer, name string, insts uint64, gen Generator) (uint64, error) {
	if len(name) == 0 || len(name) > maxArtifactNameLen {
		return 0, fmt.Errorf("trace: artifact name %q out of range", name)
	}
	zw := gzip.NewWriter(w)
	hdr := make([]byte, 0, 4+binary.MaxVarintLen64*3+len(name))
	hdr = append(hdr, artifactMagic...)
	hdr = binary.AppendUvarint(hdr, artifactVersion)
	hdr = binary.AppendUvarint(hdr, insts)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	if _, err := zw.Write(hdr); err != nil {
		return 0, err
	}
	n, err := writeTrace(zw, gen)
	if err != nil {
		return 0, err
	}
	return n, zw.Close()
}

// ReadArtifact decodes an artifact into its workload identity and a
// fully materialized recording. Any truncation or corruption — in the
// gzip framing, the artifact header, or the embedded trace stream — is
// reported as an error rather than a silently short recording, and so
// are bytes after the stream's terminator. The header's insts
// pre-sizes the recording, within Record's bound on how far a hint may
// run ahead of the records actually decoded.
func ReadArtifact(r io.Reader) (name string, insts uint64, rep *Replay, err error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return "", 0, nil, fmt.Errorf("trace: artifact gzip: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)
	if name, insts, err = readArtifactHeader(br); err != nil {
		return "", 0, nil, err
	}
	tr, err := newTraceReader(br)
	if err != nil {
		return "", 0, nil, err
	}
	rep = Record(tr, 0, insts)
	if err := tr.Err(); err != nil {
		return "", 0, nil, err
	}
	// The stream must end at its terminator. Reading on to the end also
	// makes gzip verify its checksum and length trailer.
	if _, err := tr.br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the trace stream")
		}
		return "", 0, nil, fmt.Errorf("trace: artifact: %w", err)
	}
	return name, insts, rep, nil
}

// peekArtifact decodes just an artifact's header — the workload
// identity — without materializing the recording. Stores use it to
// filter a cache directory at startup and to refuse an artifact before
// paying for its decode.
func peekArtifact(r io.Reader) (name string, insts uint64, err error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return "", 0, fmt.Errorf("trace: artifact gzip: %w", err)
	}
	defer zr.Close()
	return readArtifactHeader(bufio.NewReader(zr))
}

// readArtifactHeader decodes the header that precedes an artifact's
// embedded trace stream.
func readArtifactHeader(br *bufio.Reader) (name string, insts uint64, err error) {
	magic := make([]byte, len(artifactMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return "", 0, fmt.Errorf("trace: artifact magic: %w", err)
	}
	if string(magic) != artifactMagic {
		return "", 0, errors.New("trace: bad artifact magic")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, fmt.Errorf("trace: artifact version: %w", err)
	}
	if version != artifactVersion {
		return "", 0, fmt.Errorf("trace: unsupported artifact version %d", version)
	}
	if insts, err = binary.ReadUvarint(br); err != nil {
		return "", 0, fmt.Errorf("trace: artifact insts: %w", err)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, fmt.Errorf("trace: artifact name length: %w", err)
	}
	if nameLen == 0 || nameLen > maxArtifactNameLen {
		return "", 0, fmt.Errorf("trace: artifact name length %d out of range", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return "", 0, fmt.Errorf("trace: artifact name: %w", err)
	}
	return string(nameBytes), insts, nil
}

// encodeArtifact serializes a recording back to artifact bytes. Used
// when a store needs to ship or persist a recording it only holds in
// memory.
func encodeArtifact(name string, insts uint64, rep *Replay) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := WriteArtifact(&buf, name, insts, rep.Cursor()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
