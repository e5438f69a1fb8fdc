package ft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"exadla/internal/tile"
)

// Tile integrity checksums. The 64-bit checksum runs over bytes — for a
// tile, the little-endian IEEE-754 bit patterns of its elements — so two
// tiles agree on it iff they agree bit for bit. It seals every tile frame
// (below) on the dist wire, at rest and on disk, so a flipped bit
// anywhere on that path is caught at the next hop.
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

// CRC64 checksums a float64 slice by its bit patterns: CRC64Bytes of the
// slice's little-endian encoding.
func CRC64(data []float64) uint64 {
	b := make([]byte, 8*len(data))
	pack(b, data)
	return CRC64Bytes(b)
}

// CRC64Bytes checksums bytes, for a tile 8 little-endian bytes per element.
func CRC64Bytes(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// pack writes src's IEEE-754 bit patterns into dst, 8 little-endian bytes
// per element; len(dst) is 8·len(src).
func pack(dst []byte, src []float64) {
	for _, v := range src {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
		dst = dst[8:]
	}
}

// Unpack is pack's inverse: it decodes payload, 8 little-endian bytes per
// element, into dst; len(payload) is 8·len(dst).
func Unpack(dst []float64, payload []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
}

// A frame is the one byte form of a tile, on the dist wire and in a
// checkpoint file alike: a header of five little-endian uint32s (kind, i,
// j, rows, cols), the rows·cols elements column-major as 8-byte
// little-endian bit patterns, and a CRC64 trailer over header and payload.
// The trailer seals the header too, so a flipped coordinate is corruption,
// not a write to another tile.
type Frame struct {
	Kind       FrameKind
	I, J       int
	Rows, Cols int
}

// FrameKind names what a frame carries.
type FrameKind uint32

const (
	FrameTile       FrameKind = 1 // tile (I, J) of a matrix
	FrameCheckpoint FrameKind = 2 // a checkpoint's header words (internal/ckpt)

	frameHeader, frameTrailer = 20, 8
	maxFrameDim               = 1 << 24 // caps Rows and Cols, so 8·Rows·Cols cannot overflow
)

// ErrFrameChecksum reports a frame whose bytes changed after it was
// sealed; ErrFrameMalformed, bytes that are not one frame.
var (
	ErrFrameChecksum  = errors.New("ft: frame checksum mismatch")
	ErrFrameMalformed = errors.New("ft: malformed frame")
)

// TileFrame is the header of a frame carrying tile (i, j) of a.
func TileFrame(a *tile.Matrix[float64], i, j int) Frame {
	return Frame{Kind: FrameTile, I: i, J: j, Rows: a.TileRows(i), Cols: a.TileCols(j)}
}

// Append appends f carrying data, f.Rows·f.Cols elements column-major,
// sealed, to dst and returns the extended slice.
func (f Frame) Append(dst []byte, data []float64) []byte {
	if len(data) != f.Rows*f.Cols {
		panic(fmt.Sprintf("ft: %d elements for a %d×%d frame", len(data), f.Rows, f.Cols))
	}
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+8*len(data)+frameTrailer)
	for _, v := range [5]int{int(f.Kind), f.I, f.J, f.Rows, f.Cols} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = dst[:len(dst)+8*len(data)]
	pack(dst[len(dst)-8*len(data):], data)
	return binary.LittleEndian.AppendUint64(dst, CRC64Bytes(dst[start:]))
}

// FrameSum returns the trailer of b, a frame Append encoded, unverified.
func FrameSum(b []byte) uint64 { return binary.LittleEndian.Uint64(b[len(b)-frameTrailer:]) }

// OpenFrame checks that b is exactly one sealed frame and returns its
// header, its payload bytes (a view of b, for Unpack) and its trailer. The
// trailer is checked first, so a flipped header bit reads as
// ErrFrameChecksum rather than as a malformed or misaddressed frame.
func OpenFrame(b []byte) (f Frame, payload []byte, sum uint64, err error) {
	if len(b) < frameHeader+frameTrailer {
		return Frame{}, nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameMalformed, len(b))
	}
	body := b[:len(b)-frameTrailer]
	if sum = FrameSum(b); CRC64Bytes(body) != sum {
		return Frame{}, nil, 0, ErrFrameChecksum
	}
	u := func(k int) int { return int(binary.LittleEndian.Uint32(body[4*k:])) }
	f = Frame{Kind: FrameKind(u(0)), I: u(1), J: u(2), Rows: u(3), Cols: u(4)}
	if payload = body[frameHeader:]; f.Rows > maxFrameDim || f.Cols > maxFrameDim || len(payload) != 8*f.Rows*f.Cols {
		return Frame{}, nil, 0, fmt.Errorf("%w: %d payload bytes for a %d×%d block", ErrFrameMalformed, len(payload), f.Rows, f.Cols)
	}
	return f, payload, sum, nil
}

// ReadFrame reads one frame from r and returns its header and elements. Its
// buffer grows with the bytes that arrive, not with the block the header
// claims, so a hostile header costs no more memory than the bytes behind
// it. A stream that ends inside the frame is ErrFrameMalformed.
func ReadFrame(r io.Reader) (Frame, []float64, error) {
	b := make([]byte, frameHeader)
	if _, err := io.ReadFull(r, b); err != nil {
		return Frame{}, nil, fmt.Errorf("%w: header: %w", ErrFrameMalformed, err)
	}
	rows, cols := int64(binary.LittleEndian.Uint32(b[12:])), int64(binary.LittleEndian.Uint32(b[16:]))
	n := 8*min(rows, maxFrameDim)*min(cols, maxFrameDim) + frameTrailer
	rest, err := io.ReadAll(io.LimitReader(r, n))
	if err == nil && int64(len(rest)) != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Frame{}, nil, fmt.Errorf("%w: %d-byte frame: %w", ErrFrameMalformed, frameHeader+n, err)
	}
	f, payload, _, err := OpenFrame(append(b, rest...))
	if err != nil {
		return Frame{}, nil, err
	}
	data := make([]float64, len(payload)/8)
	Unpack(data, payload)
	return f, data, nil
}
