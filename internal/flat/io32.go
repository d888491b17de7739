package flat

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary block formats for the quantized stores, mirroring the Store
// block (io.go) with tier-specific payloads. Everything little-endian:
//
//	FLATBLK2 (Store32; decoded only, from older data directories)
//	  magic  [8]byte  "FLATBLK2"
//	  dim    uint32
//	  count  uint64
//	  data   count*dim float32 (row-major, raw IEEE-754 bits)
//	  crc    uint32   CRC-32C (Castagnoli) over everything above
//
//	FLATBLK3 (StoreI8)
//	  magic  [8]byte  "FLATBLK3"
//	  dim    uint32
//	  count  uint64
//	  scale  float64  (raw IEEE-754 bits)
//	  codes  count*dim int8
//	  crc    uint32   CRC-32C (Castagnoli) over everything above
//
// As with FLATBLK1, every length is validated before any allocation,
// and the checksum must match — torn or bit-flipped input yields an
// error, never a panic or a corrupt store.

var (
	block32Magic = [8]byte{'F', 'L', 'A', 'T', 'B', 'L', 'K', '2'}
	blockI8Magic = [8]byte{'F', 'L', 'A', 'T', 'B', 'L', 'K', '3'}
)

// DecodeStore32 parses one FLATBLK2 block from the front of data,
// returning the decoded store and the number of bytes consumed.
func DecodeStore32(data []byte) (*Store32, int, error) {
	if len(data) < blockHeaderSize+4 {
		return nil, 0, fmt.Errorf("flat: f32 block truncated: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != block32Magic {
		return nil, 0, fmt.Errorf("flat: bad f32 block magic %q", data[:8])
	}
	dim := binary.LittleEndian.Uint32(data[8:12])
	count := binary.LittleEndian.Uint64(data[12:20])
	if dim == 0 {
		return nil, 0, fmt.Errorf("flat: f32 block has zero dimension")
	}
	// Overflow-safe payload sizing: dim ≤ maxFloats/count exactly when
	// dim·count ≤ maxFloats, with no multiplication to overflow.
	maxFloats := uint64(len(data)) / 4
	if count > maxFloats || (count > 0 && uint64(dim) > maxFloats/count) {
		return nil, 0, fmt.Errorf("flat: f32 block claims %d×%d floats, input has %d bytes",
			count, dim, len(data))
	}
	n := int(uint64(dim) * count)
	total := blockHeaderSize + n*4 + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("flat: f32 block truncated: want %d bytes, have %d", total, len(data))
	}
	want := binary.LittleEndian.Uint32(data[total-4 : total])
	if got := crc32.Checksum(data[:total-4], castagnoli); got != want {
		return nil, 0, fmt.Errorf("flat: f32 block checksum mismatch: %08x != %08x", got, want)
	}
	s := newStore32(int(dim))
	raw := data[blockHeaderSize:]
	for i := 0; i < n; {
		rows := s.data.grow((n - i) / s.dim)
		for j := range rows {
			rows[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[(i+j)*4:]))
		}
		i += len(rows)
	}
	return s, total, nil
}

// blockI8HeaderSize is magic + dim + count + scale.
const blockI8HeaderSize = blockHeaderSize + 8

// EncodedSize returns the exact byte length AppendBinary will emit.
func (s *StoreI8) EncodedSize() int {
	return blockI8HeaderSize + s.Len()*s.dim + 4
}

// AppendBinary appends the store's binary block encoding to buf and
// returns the extended slice.
func (s *StoreI8) AppendBinary(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, blockI8Magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.scale))
	for _, ch := range s.codes.chunks {
		for _, c := range ch {
			buf = append(buf, byte(c))
		}
	}
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// DecodeStoreI8 parses one FLATBLK3 block from the front of data,
// returning the decoded store and the number of bytes consumed. The
// scale must be finite and non-negative (zero only alongside all-zero
// codes is what the encoder emits, but that pairing is the segment
// layer's requantization check, not the codec's). The largest Σ|code|
// comes from the codes; whether a coded row was finite does not, so the
// decoded store certifies nothing (every live row is a batch's
// candidate).
func DecodeStoreI8(data []byte) (*StoreI8, int, error) {
	if len(data) < blockI8HeaderSize+4 {
		return nil, 0, fmt.Errorf("flat: int8 block truncated: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != blockI8Magic {
		return nil, 0, fmt.Errorf("flat: bad int8 block magic %q", data[:8])
	}
	dim := binary.LittleEndian.Uint32(data[8:12])
	count := binary.LittleEndian.Uint64(data[12:20])
	scale := math.Float64frombits(binary.LittleEndian.Uint64(data[20:28]))
	if dim == 0 {
		return nil, 0, fmt.Errorf("flat: int8 block has zero dimension")
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return nil, 0, fmt.Errorf("flat: int8 block has invalid scale %v", scale)
	}
	maxCodes := uint64(len(data))
	if count > maxCodes || (count > 0 && uint64(dim) > maxCodes/count) {
		return nil, 0, fmt.Errorf("flat: int8 block claims %d×%d codes, input has %d bytes",
			count, dim, len(data))
	}
	n := int(uint64(dim) * count)
	total := blockI8HeaderSize + n + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("flat: int8 block truncated: want %d bytes, have %d", total, len(data))
	}
	want := binary.LittleEndian.Uint32(data[total-4 : total])
	if got := crc32.Checksum(data[:total-4], castagnoli); got != want {
		return nil, 0, fmt.Errorf("flat: int8 block checksum mismatch: %08x != %08x", got, want)
	}
	s := &StoreI8{dim: int(dim), scale: scale, unbounded: true}
	s.codes.width = s.dim
	raw := data[blockI8HeaderSize : blockI8HeaderSize+n]
	for len(raw) > 0 {
		codes := s.codes.grow(len(raw) / s.dim)
		for j := range codes {
			codes[j] = int8(raw[j])
		}
		for r := 0; r < len(codes); r += s.dim {
			s.maxL1 = max(s.maxL1, codeL1(codes[r:r+s.dim]))
		}
		raw = raw[len(codes):]
	}
	return s, total, nil
}
