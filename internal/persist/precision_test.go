package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flat"
	"repro/internal/store"
)

// roundBatch32 rounds every vector element to binary32, as the retired
// f32 tier's ingest did before anything reached the WAL — the reason
// its segments are lossless.
func roundBatch32(recs []store.Record) []store.Record {
	out := make([]store.Record, len(recs))
	for i, r := range recs {
		out[i] = r
		v := make([]float64, len(r.Vec))
		for j, x := range r.Vec {
			v[j] = float64(float32(x))
		}
		out[i].Vec = v
	}
	return out
}

// legacyF32Segment is a segment the retired f32 tier wrote, in the
// server's legacy data-dir fixture.
const legacyF32Segment = "../server/testdata/legacy-f32/data/exact32/segment-00000000000000000001.seg"

// legacySegment32 is the segment image the retired f32 tier checkpointed
// (seq, recs) to: format 2, precision code 1, the vectors as one FLATBLK2
// block of binary32 rows — recs' vectors must be binary32 values, as that
// tier's ingest rounded them.
func legacySegment32(seq uint64, recs []store.Record) []byte {
	le := binary.LittleEndian
	buf := append(le.AppendUint32(append([]byte(nil), segMagic[:]...), segFormatV2), 1)
	buf = le.AppendUint64(le.AppendUint64(buf, seq), uint64(len(recs)))
	for _, r := range recs {
		buf = le.AppendUint64(buf, uint64(r.ID))
	}
	if len(recs) > 0 {
		start := len(buf)
		buf = le.AppendUint64(le.AppendUint32(append(buf, "FLATBLK2"...), uint32(len(recs[0].Vec))), uint64(len(recs)))
		for _, r := range recs {
			for _, x := range r.Vec {
				buf = le.AppendUint32(buf, math.Float32bits(float32(x)))
			}
		}
		buf = le.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
	}
	var with []int
	for i, r := range recs {
		if len(r.Attrs) > 0 {
			with = append(with, i)
		}
	}
	buf = le.AppendUint32(buf, uint32(len(with)))
	for _, i := range with {
		buf = appendAttrs(le.AppendUint64(buf, uint64(i)), recs[i].Attrs)
	}
	return le.AppendUint32(buf, crc32.Checksum(buf[8:], castagnoli))
}

// segmentAt is the segment image of (seq, recs) at prec: encodeSegment's,
// or for f32, which is no longer written, legacySegment32's.
func segmentAt(t *testing.T, seq uint64, recs []store.Record, prec Precision) []byte {
	t.Helper()
	data, err := encodeSegment(seq, recs, prec)
	if prec == PrecisionF32 {
		if err == nil {
			t.Fatal("encodeSegment wrote an f32 segment")
		}
		return legacySegment32(seq, recs)
	}
	if err != nil {
		t.Fatalf("%s: encode: %v", prec, err)
	}
	return data
}

// TestSegmentPrecisionRoundTrip covers the format-2 payloads: f32
// segments, which older data directories hold, must reproduce the
// pre-rounded vectors bit for bit, and int8 segments must reproduce the
// exact f64 truth rows (the codes block is verified internally by the
// decoder).
func TestSegmentPrecisionRoundTrip(t *testing.T) {
	for _, prec := range []Precision{PrecisionF32, PrecisionI8} {
		for _, n := range []int{0, 1, 100} {
			recs := testBatch(1000, n, 8)
			if prec == PrecisionF32 {
				recs = roundBatch32(recs)
			}
			data := segmentAt(t, 77, recs, prec)
			if format := binary.LittleEndian.Uint32(data[8:]); format != segFormatV2 {
				t.Fatalf("%s n=%d: wrote format %d, want %d", prec, n, format, segFormatV2)
			}
			seq, got, err := decodeSegment(data)
			if err != nil {
				t.Fatalf("%s n=%d: decode: %v", prec, n, err)
			}
			if seq != 77 || len(got) != len(recs) {
				t.Fatalf("%s n=%d: seq=%d records=%d", prec, n, seq, len(got))
			}
			for i := range recs {
				if !recordsEqual(recs[i], got[i]) {
					t.Fatalf("%s n=%d: record %d differs:\n got  %+v\n want %+v",
						prec, n, i, got[i], recs[i])
				}
			}
		}
	}
}

// TestSegmentV2RejectsCorruption repeats the bit-flip sweep on the
// format-2 encodings.
func TestSegmentV2RejectsCorruption(t *testing.T) {
	for _, prec := range []Precision{PrecisionF32, PrecisionI8} {
		recs := testBatch(0, 20, 6)
		if prec == PrecisionF32 {
			recs = roundBatch32(recs)
		}
		data := segmentAt(t, 5, recs, prec)
		for cut := 0; cut < len(data); cut += 13 {
			if _, _, err := decodeSegment(data[:cut]); err == nil {
				t.Fatalf("%s cut=%d: decode accepted truncated segment", prec, cut)
			}
		}
		for off := 0; off < len(data); off += 11 {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x01
			if _, _, err := decodeSegment(bad); err == nil {
				t.Fatalf("%s off=%d: decode accepted corrupt segment", prec, off)
			}
		}
	}
}

// TestSegmentI8RequantizationCheck rebuilds an int8 segment with one
// code flipped but all checksums patched up: the only remaining defense
// is the decoder's requantize-and-compare, which must reject it.
func TestSegmentI8RequantizationCheck(t *testing.T) {
	recs := testBatch(10, 8, 4)
	data, err := encodeSegment(3, recs, PrecisionI8)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the FLATBLK3 block inside the image.
	magic := []byte("FLATBLK3")
	off := -1
	for i := 0; i+len(magic) <= len(data); i++ {
		if string(data[i:i+len(magic)]) == string(magic) {
			off = i
			break
		}
	}
	if off < 0 {
		t.Fatal("no FLATBLK3 block in int8 segment")
	}
	dim := binary.LittleEndian.Uint32(data[off+8:])
	count := binary.LittleEndian.Uint64(data[off+12:])
	blockLen := 28 + int(dim)*int(count) + 4
	bad := append([]byte(nil), data...)
	bad[off+28] ^= 0x7f // first code
	// Patch the block CRC, then the segment CRC, so only the
	// requantization comparison can object.
	castag := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(bad[off+blockLen-4:], crc32.Checksum(bad[off:off+blockLen-4], castag))
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[8:len(bad)-4], castag))
	if _, _, err := decodeSegment(bad); err == nil {
		t.Fatal("decode accepted int8 codes that do not requantize from the truth rows")
	}
	// Sanity: the untampered image still decodes.
	if _, _, err := decodeSegment(data); err != nil {
		t.Fatalf("pristine segment failed: %v", err)
	}
}

// TestLogPrecisionCheckpointRecovery runs the full durability cycle at
// int8 precision: append → checkpoint (format-2 segment) → more
// appends → reopen. Recovery must reproduce every acknowledged record
// bit for bit, proving the quantization scale round-trips through a
// restart (the decoder verifies codes against requantized truth). At
// f32 the checkpoint's segment is replaced by the one the retired f32
// tier wrote, which recovery must read the same way.
func TestLogPrecisionCheckpointRecovery(t *testing.T) {
	for _, prec := range []Precision{PrecisionF32, PrecisionI8} {
		dir := filepath.Join(t.TempDir(), "col")
		l, err := Create(dir, Manifest{Name: "col"}, Policy{Mode: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if prec == PrecisionI8 {
			l.SetPrecision(prec)
		}
		batch1 := testBatch(0, 40, 8)
		batch2 := testBatch(40, 25, 8)
		if prec == PrecisionF32 {
			batch1, batch2 = roundBatch32(batch1), roundBatch32(batch2)
		}
		if _, err := l.Append(batch1); err != nil {
			t.Fatal(err)
		}
		all := append(append([]store.Record(nil), batch1...), batch2...)
		if err := l.Checkpoint(func() ([]store.Record, uint64) { return batch1, 1 }); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(batch2); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if prec == PrecisionF32 {
			if err := os.WriteFile(filepath.Join(dir, segName(1)), legacySegment32(1, batch1), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The checkpoint must have produced a format-2 segment.
		segData, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if format := binary.LittleEndian.Uint32(segData[8:]); format != segFormatV2 {
			t.Fatalf("%s: checkpoint wrote format %d", prec, format)
		}
		l2, rec, err := Open(dir, Policy{Mode: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(rec.Recs) != len(all) {
			t.Fatalf("%s: recovered %d records, want %d", prec, len(rec.Recs), len(all))
		}
		for i := range all {
			if !recordsEqual(all[i], rec.Recs[i]) {
				t.Fatalf("%s: recovered record %d differs", prec, i)
			}
		}
	}
}

// TestStoreI8ScaleDeterminism double-checks the property recovery
// relies on: quantizing the same rows from scratch — as replay and
// compaction both do — always lands on the identical scale and codes.
func TestStoreI8ScaleDeterminism(t *testing.T) {
	recs := testBatch(7, 60, 8)
	build := func() *flat.StoreI8 {
		fs, err := flat.New(8)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := fs.Append(r.Vec); err != nil {
				t.Fatal(err)
			}
		}
		return flat.NewStoreI8(fs)
	}
	a, b := build(), build()
	if !a.Equal(b) {
		t.Fatal("rebuilding the int8 store changed codes or scale")
	}
	if math.IsNaN(a.Scale()) || a.Scale() <= 0 {
		t.Fatalf("scale %v", a.Scale())
	}
}
