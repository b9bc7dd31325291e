package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// decodeAll decodes the frames data holds as WAL events, as replay
// reads a segment.
func decodeAll(data []byte) ([]Event, int64) {
	var evs []Event
	_, good := decodeFrames(bytes.NewReader(data), func(ev Event) bool {
		evs = append(evs, ev)
		return true
	})
	return evs, good
}

func sameEvents(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// frameEnds returns the byte offset of the end of each frame in data,
// which holds whole frames only.
func frameEnds(data []byte) []int64 {
	var ends []int64
	for off := int64(0); off < int64(len(data)); {
		off += frameHeader + int64(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	return ends
}

// FuzzReadFrames feeds the frame decoder that the WAL, the warehouse
// and the flight store share arbitrary bytes. It must never panic, and
// it must decode the same bytes the same way. Whatever valid frames the
// bytes begin with stay whole: bytes appended after them never lose or
// alter one, and a bit flipped inside them yields a prefix of them. A
// flip in a frame's checksum or payload cuts the prefix exactly before
// that frame, since CRC-32C detects every single-bit error; a flip in a
// length field re-frames the bytes after it, so only the prefix is
// asserted there.
func FuzzReadFrames(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spec := json.RawMessage(`{"workload":{"name":"gcc2k"}}`)
	var valid bytes.Buffer
	for _, ev := range []Event{
		{Type: EvJobAccepted, Time: at, Job: &JobEvent{ID: "j-000001", Tenant: "alice", SpecHash: "abc", Spec: spec, Label: "gcc2k/lvp", TimeoutMS: 500}},
		{Type: EvJobDone, Time: at, Job: &JobEvent{ID: "j-000001", SpecHash: "abc"}},
		{Type: EvSweepStarted, Time: at, Sweep: &SweepEvent{ID: "s-0001", Total: 2, Points: []SweepPoint{{Hash: "abc", Spec: spec, Count: 2}}}},
		{Type: EvPointFailed, Time: at, Sweep: &SweepEvent{ID: "s-0001", Hash: "abc", Error: "boom"}},
		{Type: EvSweepDone, Time: at, Sweep: &SweepEvent{ID: "s-0001"}},
	} {
		if _, err := writeFrame(&valid, ev); err != nil {
			f.Fatal(err)
		}
	}
	frames := valid.Bytes()
	f.Add(frames, []byte(nil), uint32(0))
	f.Add(frames[:len(frames)-3], []byte("}"), uint32(77))
	f.Add(frames, frames, uint32(12345))
	f.Add([]byte{}, frames, uint32(9))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, '{'}, []byte{0xff}, uint32(3))
	f.Fuzz(func(t *testing.T, data, tail []byte, flip uint32) {
		recs, good := decodeAll(data)
		if again, g := decodeAll(data); g != good || !sameEvents(again, recs) {
			t.Fatalf("decoding twice gave %d records to byte %d, then %d to byte %d", len(recs), good, len(again), g)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("valid frames end at byte %d of %d", good, len(data))
		}
		whole := data[:good:good]
		if r, g := decodeAll(whole); g != good || !sameEvents(r, recs) {
			t.Fatalf("the valid frames alone decode to %d records to byte %d, want %d to byte %d", len(r), g, len(recs), good)
		}
		r, g := decodeAll(append(whole, tail...))
		if g < good || len(r) < len(recs) || !sameEvents(r[:len(recs)], recs) {
			t.Fatalf("appending %d bytes lost or altered valid frames: %d records to byte %d, want at least %d to byte %d",
				len(tail), len(r), g, len(recs), good)
		}
		if good == 0 {
			return
		}
		bit := int64(flip) % (good * 8)
		flipped := bytes.Clone(whole)
		flipped[bit/8] ^= 1 << (bit % 8)
		r, _ = decodeAll(flipped)
		if len(r) > len(recs) || !sameEvents(r, recs[:len(r)]) {
			t.Fatalf("flipping bit %d decoded %d records that are not a prefix of the %d valid ones", bit, len(r), len(recs))
		}
		var start int64
		for i, end := range frameEnds(whole) {
			if bit/8 < end {
				if bit/8 >= start+4 && len(r) != i {
					t.Fatalf("flipping bit %d, in the checksum or payload of frame %d, decoded %d records", bit, i, len(r))
				}
				break
			}
			start = end
		}
	})
}
