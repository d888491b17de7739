package flat

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary block format for a Store, used by the durable-storage layer
// (internal/persist) to serialize shard/collection vector sets into
// segment snapshots. Everything is little-endian:
//
//	magic  [8]byte  "FLATBLK1"
//	dim    uint32
//	count  uint64
//	data   count*dim float64 (row-major, raw IEEE-754 bits)
//	crc    uint32   CRC-32C (Castagnoli) over everything above
//
// Norms are not stored: they are recomputed from the decoded floats by
// the same RowNorm the append path uses, so a decoded store is
// bit-identical to one built by AppendAll over the same rows.

var blockMagic = [8]byte{'F', 'L', 'A', 'T', 'B', 'L', 'K', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockHeaderSize is magic + dim + count.
const blockHeaderSize = 8 + 4 + 8

// EncodedSize returns the exact byte length AppendBinary will emit.
func (s *Store) EncodedSize() int {
	return blockHeaderSize + s.Len()*s.dim*8 + 4
}

// AppendBinary appends the store's binary block encoding to buf and
// returns the extended slice.
func (s *Store) AppendBinary(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, blockMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
	for _, ch := range s.data.chunks {
		for _, v := range ch {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// DecodeStore parses one binary block from the front of data, returning
// the decoded store and the number of bytes consumed. Every length is
// validated against len(data) before any allocation, and the checksum
// must match, so arbitrary (truncated, bit-flipped) input yields an
// error, never a panic or a corrupt store.
func DecodeStore(data []byte) (*Store, int, error) {
	if len(data) < blockHeaderSize+4 {
		return nil, 0, fmt.Errorf("flat: block truncated: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != blockMagic {
		return nil, 0, fmt.Errorf("flat: bad block magic %q", data[:8])
	}
	dim := binary.LittleEndian.Uint32(data[8:12])
	count := binary.LittleEndian.Uint64(data[12:20])
	if dim == 0 {
		return nil, 0, fmt.Errorf("flat: block has zero dimension")
	}
	// Overflow-safe payload sizing: both factors are bounded by the
	// input length before they are multiplied.
	maxFloats := uint64(len(data)) / 8
	if uint64(dim) > maxFloats || count > maxFloats || uint64(dim)*count > maxFloats {
		return nil, 0, fmt.Errorf("flat: block claims %d×%d floats, input has %d bytes",
			count, dim, len(data))
	}
	n := int(uint64(dim) * count)
	total := blockHeaderSize + n*8 + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("flat: block truncated: want %d bytes, have %d", total, len(data))
	}
	want := binary.LittleEndian.Uint32(data[total-4 : total])
	if got := crc32.Checksum(data[:total-4], castagnoli); got != want {
		return nil, 0, fmt.Errorf("flat: block checksum mismatch: %08x != %08x", got, want)
	}
	s := newStore(int(dim))
	raw := data[blockHeaderSize:]
	for i := 0; i < int(count); {
		rows, norms := s.grow(int(count) - i)
		for j := range rows {
			rows[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*s.dim+j)*8:]))
		}
		for r := range norms {
			norms[r] = RowNorm(rows[r*s.dim : (r+1)*s.dim])
		}
		i += len(norms)
	}
	return s, total, nil
}
