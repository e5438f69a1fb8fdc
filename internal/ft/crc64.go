package ft

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Tile integrity checksums. A tile's 64-bit checksum is computed over the
// little-endian IEEE-754 bit patterns of its elements in storage order, so it
// is exactly as bitwise as the determinism contract: two tiles agree on their
// checksum iff they agree bit for bit. The checksum travels end to end —
// computed by the committing worker, verified by the coordinator before the
// store accepts the bytes, kept alongside the tile at rest (where a background
// scrub re-verifies it), and served back with every Get for the fetching
// worker to check. A flipped bit anywhere on that path is detected at the
// next hop rather than silently factored into the result.
//
// The checksum is CRC-32C (Castagnoli) in the high word and CRC-32 (IEEE) in
// the low word. Their generator polynomials are coprime over GF(2), so by the
// Chinese remainder theorem the pair is exactly a CRC with the degree-64
// generator P_C·P_IEEE: an error pattern e(x) goes unnoticed only if both
// divide it, i.e. only if their product does. That gives the guarantees of a
// 64-bit CRC — every single-bit flip, every burst of at most 64 bits, random
// corruption missed with probability 2⁻⁶⁴ — while both halves run on CRC
// hardware (SSE4.2 and PCLMULQDQ on amd64, the CRC32 instructions on arm64)
// through hash/crc32.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcChunk is the encode buffer CRC64 streams a float slice through: small
// enough to stay in L1, large enough that the per-call overhead of the
// hardware CRC routines is noise.
const crcChunk = 2048

// CRC64 checksums a float64 slice by its bit patterns. It equals CRC64Bytes
// of the slice's little-endian encoding.
func CRC64(data []float64) uint64 {
	var buf [crcChunk]byte
	var c, e uint32
	for len(data) > 0 {
		n := min(len(data), crcChunk/8)
		b := buf[:]
		for _, v := range data[:n] {
			binary.LittleEndian.PutUint64(b, math.Float64bits(v))
			b = b[8:]
		}
		c = crc32.Update(c, castagnoli, buf[:8*n])
		e = crc32.Update(e, crc32.IEEETable, buf[:8*n])
		data = data[n:]
	}
	return uint64(c)<<32 | uint64(e)
}

// CRC64Bytes checksums an encoded tile payload: 8 little-endian bytes per
// element, the form tiles cross the wire in.
func CRC64Bytes(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}
