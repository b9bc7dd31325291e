package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// This file implements LVPT, the compact binary trace format inside an
// LVPA artifact (artifact.go), so an uploaded stream can be recorded
// once and replayed many times. The format is versioned and
// self-describing:
//
//	header:  magic "LVPT" | u16 version | u64 seed | u64 count
//	records: one per instruction, varint-packed fields gated by a
//	         presence mask
//
// Loads and stores carry their architectural address/size/value, so a
// replayed trace reproduces runs bit-for-bit: the reader rebuilds the
// memory image by replaying stores over a backing store seeded with the
// recorded fill seed.
//
// Version 2 extends the header with an explicit start-of-stream image:
//
//	header:  magic "LVPT" | uvarint version (2) | uvarint seed |
//	         uvarint nWords | nWords × (uvarint wordIdx delta, uvarint value)
//
// Synthetic workloads never need it — their generators begin with an
// empty footprint (kernels write memory only while emitting), so the
// seed alone reconstructs the Run-start image and the writer keeps
// emitting version 1, byte-identical to every artifact recorded before
// version 2 existed. External (uploaded) traces do need it: their
// pre-image holds the load values the converter reconstructed, which no
// fill seed can regenerate. Word indices are delta-encoded in ascending
// order, so dense images cost ~2 bytes of index per word before gzip.

const (
	traceMagic        = "LVPT"
	traceVersion      = 1
	traceVersionImage = 2

	// maxImageWords and maxImagePages bound a version-2 pre-image (128
	// MiB of words, 1 GiB of materialized pages): far beyond any
	// admissible trace, small enough that a hostile header cannot
	// balloon memory through page materialization.
	maxImageWords = 1 << 24
	maxImagePages = 1 << 14
)

// field-presence mask bits.
const (
	fDst uint8 = 1 << iota
	fSrc1
	fSrc2
	fMem
	fBranch
	fLat
	fFlags
)

// writeTrace records every instruction from gen to w. It returns the
// number of instructions written. The recorded header carries the
// generator's memory fill seed (gen.Mem().Seed()) so replay can
// reconstruct load values for never-written locations.
//
// When the generator's memory image already holds written words at the
// start of the stream — an external trace's reconstructed pre-image —
// the writer emits a version-2 trace carrying the image explicitly (no
// fill seed can describe written words). Generators starting from an
// empty footprint, which is every live synthetic generator, produce
// version 1, byte-identical to before version 2 existed.
func writeTrace(w io.Writer, gen Generator) (uint64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	img := gen.Mem()
	if img.Footprint() > 0 {
		if err := writeU(traceVersionImage); err != nil {
			return 0, err
		}
		if err := writeU(img.Seed()); err != nil {
			return 0, err
		}
		if err := writeU(uint64(img.Footprint())); err != nil {
			return 0, err
		}
		var werr error
		prev := uint64(0)
		img.WrittenWords(func(wordIdx, val uint64) {
			if werr != nil {
				return
			}
			if werr = writeU(wordIdx - prev); werr == nil {
				werr = writeU(val)
			}
			prev = wordIdx
		})
		if werr != nil {
			return 0, werr
		}
	} else {
		if err := writeU(traceVersion); err != nil {
			return 0, err
		}
		if err := writeU(img.Seed()); err != nil {
			return 0, err
		}
	}

	// Instruction count is unknown up front with a streaming writer;
	// emit records and a terminator instead of a count.
	var count uint64
	var in Inst
	for gen.Next(&in) {
		if err := writeRecord(bw, writeU, &in); err != nil {
			return count, err
		}
		count++
	}
	// Terminator: a zero mask with opcode 0xFF.
	if err := bw.WriteByte(0xFF); err != nil {
		return count, err
	}
	return count, bw.Flush()
}

func writeRecord(bw *bufio.Writer, writeU func(uint64) error, in *Inst) error {
	if in.Op == Op(0xFF) {
		return errors.New("trace: reserved opcode")
	}
	var mask uint8
	if in.Dst != 0 {
		mask |= fDst
	}
	if in.Src1 != 0 {
		mask |= fSrc1
	}
	if in.Src2 != 0 {
		mask |= fSrc2
	}
	if in.Op == OpLoad || in.Op == OpStore {
		mask |= fMem
	}
	if in.IsBranch() {
		mask |= fBranch
	}
	if in.Lat > 1 {
		mask |= fLat
	}
	if in.Flags != 0 {
		mask |= fFlags
	}
	if err := bw.WriteByte(byte(in.Op)); err != nil {
		return err
	}
	if err := bw.WriteByte(mask); err != nil {
		return err
	}
	if err := writeU(in.PC); err != nil {
		return err
	}
	if mask&fDst != 0 {
		if err := bw.WriteByte(byte(in.Dst)); err != nil {
			return err
		}
	}
	if mask&fSrc1 != 0 {
		if err := bw.WriteByte(byte(in.Src1)); err != nil {
			return err
		}
	}
	if mask&fSrc2 != 0 {
		if err := bw.WriteByte(byte(in.Src2)); err != nil {
			return err
		}
	}
	if mask&fMem != 0 {
		if err := writeU(in.Addr); err != nil {
			return err
		}
		if err := bw.WriteByte(in.Size); err != nil {
			return err
		}
		if err := writeU(in.Value); err != nil {
			return err
		}
	}
	if mask&fBranch != 0 {
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		if err := bw.WriteByte(taken); err != nil {
			return err
		}
		if err := writeU(in.Target); err != nil {
			return err
		}
	}
	if mask&fLat != 0 {
		if err := bw.WriteByte(in.Lat); err != nil {
			return err
		}
	}
	if mask&fFlags != 0 {
		if err := bw.WriteByte(byte(in.Flags)); err != nil {
			return err
		}
	}
	return nil
}

// traceReader replays a recorded trace as a Generator.
type traceReader struct {
	br     *bufio.Reader
	memory *mem.Backing
	err    error
	done   bool
}

// newTraceReader parses the header and returns a Generator over the
// recorded stream. The returned reader's Mem starts as the recorded
// initial image (fill seed only); stores replay through it as the
// stream is consumed, exactly as live generators behave.
func newTraceReader(r io.Reader) (*traceReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, errors.New("trace: bad magic")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != traceVersion && version != traceVersionImage {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading seed: %w", err)
	}
	memory := mem.NewBacking(seed)
	if version == traceVersionImage {
		nWords, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading image size: %w", err)
		}
		if nWords > maxImageWords {
			return nil, fmt.Errorf("trace: pre-image of %d words exceeds limit %d", nWords, maxImageWords)
		}
		wordIdx := uint64(0)
		for i := uint64(0); i < nWords; i++ {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: reading image word index: %w", err)
			}
			val, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: reading image word value: %w", err)
			}
			wordIdx += delta
			memory.Write(wordIdx<<3, 8, val)
			if memory.PageCount() > maxImagePages {
				return nil, fmt.Errorf("trace: pre-image materializes more than %d pages", maxImagePages)
			}
		}
	}
	return &traceReader{br: br, memory: memory}, nil
}

// Mem implements Generator.
func (t *traceReader) Mem() *mem.Backing { return t.memory }

// Err returns the first decode error encountered, if any (Next returns
// false both at end-of-trace and on error).
func (t *traceReader) Err() error { return t.err }

// Next implements Generator.
func (t *traceReader) Next(in *Inst) bool {
	if t.done || t.err != nil {
		return false
	}
	op, err := t.br.ReadByte()
	if err != nil {
		t.fail(err)
		return false
	}
	if op == 0xFF {
		t.done = true
		return false
	}
	mask, err := t.br.ReadByte()
	if err != nil {
		t.fail(err)
		return false
	}
	*in = Inst{Op: Op(op), Lat: 1}
	if in.PC, err = binary.ReadUvarint(t.br); err != nil {
		t.fail(err)
		return false
	}
	readReg := func(dst *Reg) bool {
		b, e := t.br.ReadByte()
		if e != nil {
			t.fail(e)
			return false
		}
		*dst = Reg(b)
		return true
	}
	if mask&fDst != 0 && !readReg(&in.Dst) {
		return false
	}
	if mask&fSrc1 != 0 && !readReg(&in.Src1) {
		return false
	}
	if mask&fSrc2 != 0 && !readReg(&in.Src2) {
		return false
	}
	if mask&fMem != 0 {
		if in.Addr, err = binary.ReadUvarint(t.br); err != nil {
			t.fail(err)
			return false
		}
		if in.Size, err = t.br.ReadByte(); err != nil {
			t.fail(err)
			return false
		}
		if in.Value, err = binary.ReadUvarint(t.br); err != nil {
			t.fail(err)
			return false
		}
	}
	if mask&fBranch != 0 {
		b, e := t.br.ReadByte()
		if e != nil {
			t.fail(e)
			return false
		}
		in.Taken = b != 0
		if in.Target, err = binary.ReadUvarint(t.br); err != nil {
			t.fail(err)
			return false
		}
	}
	if mask&fLat != 0 {
		if in.Lat, err = t.br.ReadByte(); err != nil {
			t.fail(err)
			return false
		}
	}
	if mask&fFlags != 0 {
		b, e := t.br.ReadByte()
		if e != nil {
			t.fail(e)
			return false
		}
		in.Flags = Flags(b)
	}
	// Keep the architectural memory image in sync, as live generators
	// do: the reader's Mem reflects all stores replayed so far.
	if in.Op == OpStore {
		t.memory.Write(in.Addr, in.Size, in.Value)
	}
	return true
}

func (t *traceReader) fail(err error) {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	t.err = fmt.Errorf("trace: decode: %w", err)
}

// FillSeed returns the fill seed a stream's backing memory uses, for
// recording its trace. The argument is a stream name: salted streams
// ("name#salt") resolve to the salted construction seed, so a replayed
// artifact reconstructs the exact memory image its live generator
// presented. For bare workload names this is fnv1a(name), unchanged
// from before salted streams existed — old artifacts stay valid.
func FillSeed(stream string) uint64 {
	name, salt := SplitStreamName(stream)
	return streamSeed(name, salt)
}
