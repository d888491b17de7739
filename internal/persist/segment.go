package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"

	"repro/internal/errfs"
	"repro/internal/flat"
	"repro/internal/store"
)

// Segment file format (all little-endian):
//
//	magic   [8]byte "IPSSEG1\n"
//	format  uint32  (1 or 2)
//	prec    byte    format 2 only: storage precision (0 f64, 1 f32 —
//	                decoded only, 2 int8)
//	seq     uint64  WAL sequence covered: the segment holds every
//	                record of batches 1..seq
//	count   uint64  record count
//	ids     count × int64
//	vecs    vector payload (omitted when count == 0), by precision:
//	                f64 — one flat.Store binary block (FLATBLK1): the
//	                columnar dim/count header, raw little-endian float64
//	                rows and block checksum from flat.AppendBinary;
//	                f32 — one flat.Store32 block (FLATBLK2): what
//	                collections of the retired f32 tier checkpointed,
//	                their vectors rounded to binary32 at ingest, so it
//	                widens to those rows exactly. Nothing writes it
//	                now; a data directory that holds one reopens it as
//	                f64 rows;
//	                int8 — the FLATBLK1 f64 truth block (re-ranking
//	                needs the exact rows) followed by the FLATBLK3 code
//	                block carrying the quantization scale. The decoder
//	                requantizes the truth rows and insists on
//	                bit-identical codes and scale, so a restart provably
//	                reconstructs the same quantized index it lost.
//	attrs   uint32 nWith, then nWith × (uint64 recIndex, uint32 n,
//	                n × (key, value) length-prefixed strings)
//	crc     uint32  CRC-32C of everything after the magic
//
// f64 collections keep writing format 1 — byte-identical to every
// segment written before precisions existed — so existing data
// directories open unchanged and new f64 directories stay readable by
// older builds. Only int8 collections emit format 2.
//
// Segments are written to a temp file, fsynced, renamed into place and
// the directory fsynced, so a crash mid-checkpoint leaves at most an
// ignored .tmp file; a rename that still manages to surface a torn
// segment is caught by the trailing checksum and the loader falls back
// to the next-older segment (plus whatever WAL frames remain).

var segMagic = [8]byte{'I', 'P', 'S', 'S', 'E', 'G', '1', '\n'}

const (
	segFormat   = 1
	segFormatV2 = 2
)

// Precision names a collection's vector storage tier. It rides in the
// server's index spec (and therefore the manifest) and selects the
// segment payload encoding above.
type Precision string

const (
	PrecisionF64 Precision = "f64"
	PrecisionF32 Precision = "f32" // decoded only
	PrecisionI8  Precision = "int8"
)

// precCode maps a precision segments are written at to its format-2
// header byte. The zero Precision ("") counts as f64 so callers that
// never opted in keep the legacy behavior everywhere.
func precCode(p Precision) (byte, error) {
	switch p {
	case "", PrecisionF64:
		return 0, nil
	case PrecisionI8:
		return 2, nil
	}
	return 0, fmt.Errorf("persist: segments are not written at precision %q", p)
}

func precFromCode(b byte) (Precision, error) {
	switch b {
	case 0:
		return PrecisionF64, nil
	case 1:
		return PrecisionF32, nil
	case 2:
		return PrecisionI8, nil
	}
	return "", fmt.Errorf("persist: unknown segment precision code %d", b)
}

// encodeSegment builds the full segment file image for (seq, recs) at
// the given storage precision. All records must share one dimension
// (they come from one relation).
func encodeSegment(seq uint64, recs []store.Record, prec Precision) ([]byte, error) {
	code, err := precCode(prec)
	if err != nil {
		return nil, err
	}
	var fs *flat.Store
	if len(recs) > 0 {
		if fs, err = flat.New(len(recs[0].Vec)); err != nil {
			return nil, fmt.Errorf("persist: segment: %w", err)
		}
		for i, r := range recs {
			if err := fs.Append(r.Vec); err != nil {
				return nil, fmt.Errorf("persist: segment record %d: %w", i, err)
			}
		}
	}
	size := 8 + 4 + 1 + 8 + 8 + len(recs)*8 + 4
	if fs != nil {
		size += fs.EncodedSize() * 2
	}
	buf := make([]byte, 0, size+64)
	buf = append(buf, segMagic[:]...)
	if code == 0 {
		buf = binary.LittleEndian.AppendUint32(buf, segFormat)
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, segFormatV2)
		buf = append(buf, code)
	}
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
	}
	if fs != nil {
		buf = fs.AppendBinary(buf)
		if code == 2 {
			buf = flat.NewStoreI8(fs).AppendBinary(buf)
		}
	}
	nWith := 0
	for _, r := range recs {
		if len(r.Attrs) > 0 {
			nWith++
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nWith))
	for i, r := range recs {
		if len(r.Attrs) == 0 {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
		buf = appendAttrs(buf, r.Attrs)
	}
	crc := crc32.Checksum(buf[8:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc), nil
}

func appendAttrs(buf []byte, attrs map[string]string) []byte {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	// Canonical order, matching the WAL encoding.
	sort.Strings(keys)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, attrs[k])
	}
	return buf
}

// decodeSegment parses and verifies a whole segment file image,
// returning the covered WAL sequence and the records. Record vectors
// are row views into one contiguous decoded flat.Store — no per-row
// copies.
func decodeSegment(data []byte) (seq uint64, recs []store.Record, err error) {
	if len(data) < 8+4+8+8+4 {
		return 0, nil, fmt.Errorf("persist: segment truncated: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return 0, nil, fmt.Errorf("persist: bad segment magic %q", data[:8])
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[8:len(data)-4], castagnoli); got != want {
		return 0, nil, fmt.Errorf("persist: segment checksum mismatch: %08x != %08x", got, want)
	}
	rest := data[8 : len(data)-4]
	format := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	prec := PrecisionF64
	if format == segFormatV2 {
		if len(rest) < 1+8+8 {
			return 0, nil, fmt.Errorf("persist: v2 segment header truncated")
		}
		if prec, err = precFromCode(rest[0]); err != nil {
			return 0, nil, err
		}
		rest = rest[1:]
	} else if format != segFormat {
		return 0, nil, fmt.Errorf("persist: unsupported segment format %d", format)
	}
	seq = binary.LittleEndian.Uint64(rest)
	count := binary.LittleEndian.Uint64(rest[8:])
	rest = rest[16:]
	if uint64(len(rest))/8 < count {
		return 0, nil, fmt.Errorf("persist: segment claims %d records in %d bytes", count, len(rest))
	}
	recs = make([]store.Record, count)
	for i := range recs {
		recs[i].ID = int(int64(binary.LittleEndian.Uint64(rest[i*8:])))
	}
	rest = rest[int(count)*8:]
	if count > 0 {
		var fs *flat.Store
		var n int
		switch prec {
		case PrecisionF32:
			s32, n32, err := flat.DecodeStore32(rest)
			if err != nil {
				return 0, nil, fmt.Errorf("persist: segment f32 vectors: %w", err)
			}
			if fs, err = s32.ToStore(); err != nil {
				return 0, nil, fmt.Errorf("persist: segment f32 vectors: %w", err)
			}
			n = n32
		default:
			if fs, n, err = flat.DecodeStore(rest); err != nil {
				return 0, nil, fmt.Errorf("persist: segment vectors: %w", err)
			}
		}
		if uint64(fs.Len()) != count {
			return 0, nil, fmt.Errorf("persist: segment vector block has %d rows, want %d", fs.Len(), count)
		}
		for i := range recs {
			recs[i].Vec = fs.Row(i)
		}
		rest = rest[n:]
		if prec == PrecisionI8 {
			// The code block is redundant with requantizing the truth
			// rows — which is exactly why it is worth carrying: decoding
			// proves the deterministic scale survives a crash/restart
			// cycle bit for bit.
			codes, n8, err := flat.DecodeStoreI8(rest)
			if err != nil {
				return 0, nil, fmt.Errorf("persist: segment int8 codes: %w", err)
			}
			if !codes.Equal(flat.NewStoreI8(fs)) {
				return 0, nil, fmt.Errorf("persist: segment int8 codes do not requantize from the stored vectors")
			}
			rest = rest[n8:]
		}
	}
	if len(rest) < 4 {
		return 0, nil, fmt.Errorf("persist: segment attrs truncated")
	}
	nWith := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	for a := uint32(0); a < nWith; a++ {
		if len(rest) < 12 {
			return 0, nil, fmt.Errorf("persist: segment attr entry %d truncated", a)
		}
		idx := binary.LittleEndian.Uint64(rest)
		n := binary.LittleEndian.Uint32(rest[8:])
		rest = rest[12:]
		if idx >= count {
			return 0, nil, fmt.Errorf("persist: segment attr entry %d targets record %d of %d", a, idx, count)
		}
		if uint64(n) > uint64(len(rest))/8 {
			return 0, nil, fmt.Errorf("persist: segment attr entry %d claims %d attrs", a, n)
		}
		attrs := make(map[string]string, n)
		for j := uint32(0); j < n; j++ {
			var k, v string
			if k, rest, err = takeString(rest); err != nil {
				return 0, nil, fmt.Errorf("persist: segment attr entry %d key: %w", a, err)
			}
			if v, rest, err = takeString(rest); err != nil {
				return 0, nil, fmt.Errorf("persist: segment attr entry %d value: %w", a, err)
			}
			attrs[k] = v
		}
		recs[idx].Attrs = attrs
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("persist: %d trailing segment bytes", len(rest))
	}
	return seq, recs, nil
}

// verifySegmentData checks a segment file image's magic and trailing
// whole-file CRC without decoding the payload — the integrity scrubber's
// cheap pass over immutable files.
func verifySegmentData(data []byte) error {
	if len(data) < 8+4+8+8+4 {
		return fmt.Errorf("persist: segment truncated: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return fmt.Errorf("persist: bad segment magic %q", data[:8])
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[8:len(data)-4], castagnoli); got != want {
		return fmt.Errorf("persist: segment checksum mismatch: %08x != %08x", got, want)
	}
	return nil
}

// writeSegment atomically writes segment-<seq>.seg in dir, returning
// the segment's byte size.
func writeSegment(fsys errfs.FS, dir string, seq uint64, recs []store.Record, prec Precision) (int64, error) {
	data, err := encodeSegment(seq, recs, prec)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), writeFileAtomic(fsys, dir, segName(seq), data)
}

// readSegment loads and verifies one segment file, also reporting its
// byte size (which feeds the scaled checkpoint threshold).
func readSegment(fsys errfs.FS, dir string, seq uint64) (uint64, []store.Record, int64, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, segName(seq)))
	if err != nil {
		return 0, nil, 0, err
	}
	seg, recs, err := decodeSegment(data)
	return seg, recs, int64(len(data)), err
}
