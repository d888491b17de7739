package persist

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// FuzzWALDecode throws arbitrary bytes at the WAL frame/batch decoder:
// it must never panic, never over-allocate on a lying length field,
// and when it does accept a frame the decoded batch must re-encode and
// re-decode to the same records (the decoder is a left inverse of the
// canonical encoder).
func FuzzWALDecode(f *testing.F) {
	// Seed with well-formed WAL images of varying shape, one per op.
	for _, seed := range []struct {
		op   uint32
		recs []store.Record
		ids  []int
	}{
		{op: opAppend},
		{op: opAppend, recs: []store.Record{{ID: 1, Vec: vec.Vector{1, 2, 3}}}},
		{op: opAppend, recs: []store.Record{
			{ID: -7, Vec: vec.Vector{0.5}, Attrs: map[string]string{"a": "b", "": ""}},
			{ID: 1 << 40, Vec: vec.Vector{}}}},
		{op: opUpsert, recs: []store.Record{{ID: 3, Vec: vec.Vector{-1}},
			{ID: 3, Vec: vec.Vector{2}}}},
		{op: opDelete},
		{op: opDelete, ids: []int{0, -9, 1 << 50, 0}},
	} {
		img := append([]byte(nil), walMagic[:]...)
		frame := make([]byte, frameHeaderSize)
		if seed.op == opDelete {
			frame = encodeDelete(frame, 1, seed.ids)
		} else {
			frame = encodeBatch(frame, 1, seed.op, seed.recs)
		}
		frame, err := finishFrame(frame, frameHeaderSize)
		if err != nil {
			f.Fatal(err)
		}
		img = append(img, frame...)
		f.Add(img)
	}
	f.Add([]byte("IPSWAL1\n garbage"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := scanWAL(data)
		for _, b := range sc.batches {
			if b.op > opDelete {
				t.Fatalf("accepted unknown op %d", b.op)
			}
			if b.op == opDelete && b.recs != nil || b.op != opDelete && b.ids != nil {
				t.Fatalf("op %d decoded the wrong payload kind", b.op)
			}
			// Round-trip: accepted batches re-encode canonically and
			// decode back to identical payloads.
			var re []byte
			if b.op == opDelete {
				re = encodeDelete(nil, b.seq, b.ids)
			} else {
				re = encodeBatch(nil, b.seq, b.op, b.recs)
			}
			b2, err := decodeBatch(re)
			if err != nil {
				t.Fatalf("re-decode of accepted batch failed: %v", err)
			}
			if b2.seq != b.seq || b2.op != b.op || len(b2.recs) != len(b.recs) || len(b2.ids) != len(b.ids) {
				t.Fatalf("round-trip changed shape: seq %d->%d, op %d->%d, n %d->%d, ids %d->%d",
					b.seq, b2.seq, b.op, b2.op, len(b.recs), len(b2.recs), len(b.ids), len(b2.ids))
			}
			for i := range b2.recs {
				if !recordsEqual(b.recs[i], b2.recs[i]) {
					t.Fatalf("round-trip changed record %d", i)
				}
			}
			for i := range b2.ids {
				if b.ids[i] != b2.ids[i] {
					t.Fatalf("round-trip changed delete id %d", i)
				}
			}
		}
	})
}

// FuzzSegmentDecode: same robustness contract for the segment loader.
func FuzzSegmentDecode(f *testing.F) {
	for _, n := range []int{0, 3} {
		data, err := encodeSegment(uint64(n), testBatch(0, n, 4), PrecisionF64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// An f32 segment, which only older data directories hold: the one the
	// server's legacy data-dir fixture checkpointed.
	legacy, err := os.ReadFile(legacyF32Segment)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, recs, err := decodeSegment(data)
		if err != nil {
			return
		}
		// Accepted segments must survive a re-encode/re-decode cycle
		// with identical records. (Byte-level identity would be too
		// strict: a crafted input can carry unsorted or duplicate attr
		// keys that the canonical encoder collapses.)
		re, err := encodeSegment(seq, recs, PrecisionF64)
		if err != nil {
			t.Fatalf("re-encode of accepted segment failed: %v", err)
		}
		seq2, recs2, err := decodeSegment(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if seq2 != seq || len(recs2) != len(recs) {
			t.Fatalf("round-trip changed shape: seq %d->%d, n %d->%d", seq, seq2, len(recs), len(recs2))
		}
		for i := range recs2 {
			if !recordsEqual(recs[i], recs2[i]) {
				t.Fatalf("round-trip changed record %d", i)
			}
		}
	})
}
