package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"exadla/internal/ft"
	"exadla/internal/tile"
)

func sampleCheckpoint(rng *rand.Rand, op Op, m, n, nb, step int) *Checkpoint {
	data := make([]float64, m*n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	data[0] = math.Copysign(0, -1)
	if len(data) > 2 {
		data[1] = math.SmallestNonzeroFloat64
		data[2] = math.Inf(1)
	}
	c := &Checkpoint{Op: op, Step: step, A: tile.FromColMajor(m, n, data, m, nb)}
	if op == OpLU {
		c.Piv = make([]int, min(step*nb, m, n))
		for r := range c.Piv {
			c.Piv[r] = r + rng.Intn(m-r)
		}
	}
	return c
}

// legacy seals a retired format's payload as its writer did: the magic of
// version v, the payload length, the payload, and the CRC-32 (IEEE) the
// writer computed, precomputed here as crc.
func legacy(v byte, payload []byte, crc uint32) []byte {
	out := append([]byte("EXADLAC"), '0'+v)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(append(out, payload...), crc)
}

// v1LUSnapshot encodes an LU checkpoint in format version 1, which carried
// incremental-pivoting state: the diagonal pivots and the stacked
// elimination factors with their pivots.
func v1LUSnapshot() []byte {
	var p []byte
	u32 := func(v uint32) { p = binary.LittleEndian.AppendUint32(p, v) }
	u64 := func(v uint64) { p = binary.LittleEndian.AppendUint64(p, v) }
	p = append(p, uint8(OpLU))
	for _, v := range []uint32{1, 4, 4, 2} { // step, M, N, NB
		u32(v)
	}
	for i := 0; i < 16; i++ {
		u64(math.Float64bits(float64(i)))
	}
	u32(4) // StackL: nil, one 4×2 stack, nil, nil
	u32(^uint32(0))
	u32(8)
	for i := 0; i < 8; i++ {
		u64(math.Float64bits(0.5))
	}
	u32(^uint32(0))
	u32(^uint32(0))
	u32(1) // DiagPiv
	u32(2)
	u64(1)
	u64(1)
	u32(0) // StackPiv
	return legacy(1, p, 0x066cefc5)
}

// v2CholSnapshot encodes a 2×2 Cholesky checkpoint in format version 2:
// one column-major matrix and an empty pivot list.
func v2CholSnapshot() []byte {
	p := []byte{uint8(OpCholesky)}
	for _, v := range []uint32{1, 2, 2, 1} { // step, M, N, NB
		p = binary.LittleEndian.AppendUint32(p, v)
	}
	for _, v := range []float64{4, 1, 1, 4} {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	p = binary.LittleEndian.AppendUint32(p, 0)
	return legacy(2, p, 0xae533e53)
}

// header is the magic and header frame of a checkpoint with these words.
func header(words ...int) []byte {
	w := make([]float64, len(words))
	for k, v := range words {
		w[k] = math.Float64frombits(uint64(v))
	}
	return ft.Frame{Kind: ft.FrameCheckpoint, Rows: 1, Cols: len(w)}.Append(magic[:], w)
}

func checkEqual(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	g, w := got.A, want.A
	if got.Op != want.Op || got.Step != want.Step || g.M != w.M || g.N != w.N || g.NB != w.NB {
		t.Fatalf("header mismatch: got %+v want %+v",
			[5]int{int(got.Op), got.Step, g.M, g.N, g.NB},
			[5]int{int(want.Op), want.Step, w.M, w.N, w.NB})
	}
	gd, wd := g.ToColMajor(), w.ToColMajor()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("data[%d]: %x != %x", i, math.Float64bits(gd[i]), math.Float64bits(wd[i]))
		}
	}
	if !slices.Equal(got.Piv, want.Piv) {
		t.Fatalf("Piv %v != %v", got.Piv, want.Piv)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*Checkpoint{
		sampleCheckpoint(rng, OpCholesky, 12, 12, 4, 2),
		sampleCheckpoint(rng, OpLU, 10, 7, 3, 2),
		sampleCheckpoint(rng, OpCholesky, 1, 1, 1, 0),
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkEqual(t, got, c)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := sampleCheckpoint(rng, OpLU, 8, 8, 4, 1)
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncation at every prefix length must error, not panic.
	for cut := range len(good) {
		if _, err := Decode(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncated to %d bytes decoded successfully", cut)
		}
	}
	// A flipped bit anywhere past the magic — a frame header included —
	// must fail that frame's seal.
	for bit := 8 * len(magic); bit < 8*len(good); bit += 7 {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("checkpoint with bit %d flipped decoded successfully", bit)
		}
	}
	// Bad magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 'X'
	if _, err := Decode(bytes.NewReader(bad2)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bytes after the last tile.
	if _, err := Decode(bytes.NewReader(append(append([]byte(nil), good...), 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	// Two tiles swapped: every frame is sealed, but not where it belongs.
	a := c.A
	swapped := header(int(c.Op), c.Step, a.M, a.N, a.NB)
	swapped = swapped[:len(swapped):len(swapped)]
	for _, ij := range [][2]int{{1, 0}, {0, 0}, {0, 1}, {1, 1}} {
		swapped = ft.TileFrame(a, ij[0], ij[1]).Append(swapped, a.Tile(ij[0], ij[1]))
	}
	if _, err := Decode(bytes.NewReader(swapped)); err == nil {
		t.Error("tiles out of tile-column order accepted")
	}
	// Version-1 (incremental-pivoting LU state) and version-2 (CRC-32
	// sealed column-major) snapshots are refused with a typed error rather
	// than misread.
	for v, snap := range map[int][]byte{1: v1LUSnapshot(), 2: v2CholSnapshot()} {
		var ve *VersionError
		if _, err := Decode(bytes.NewReader(snap)); !errors.As(err, &ve) || ve.Version != v {
			t.Errorf("version-%d snapshot: got %v, want *VersionError{%d}", v, err, v)
		}
	}
}

// TestDecodeBoundsAllocation: a header claiming a huge grid or a huge tile
// fails at the end of the bytes behind it, without allocating the grid.
func TestDecodeBoundsAllocation(t *testing.T) {
	const big = 1 << 20
	// A tile frame's header, laid out as ft lays it out, with no payload.
	var hugeTile []byte
	for _, v := range []uint32{uint32(ft.FrameTile), 0, 0, big, big} {
		hugeTile = binary.LittleEndian.AppendUint32(hugeTile, v)
	}
	for name, b := range map[string][]byte{
		"2^40 tiles of one element": header(int(OpCholesky), 0, big, big, 1),
		"one 2^40-element tile":     append(header(int(OpCholesky), 0, big, big, big), hugeTile...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
			t.Errorf("%s: allocated %d bytes", name, n)
		}
	}
}

func TestSaveLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	c1 := sampleCheckpoint(rng, OpCholesky, 8, 8, 4, 1)
	c2 := sampleCheckpoint(rng, OpCholesky, 8, 8, 4, 2)
	if _, err := Save(dir, c1); err != nil {
		t.Fatal(err)
	}
	p2, err := Save(dir, c2)
	if err != nil {
		t.Fatal(err)
	}

	got, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != p2 {
		t.Errorf("Latest path %q, want %q", path, p2)
	}
	checkEqual(t, got, c2)

	// Corrupt the newest file: Latest must fall back to step 1.
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, got, c1)

	// And with nothing valid left, ErrNoCheckpoint.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "ckpt-000009.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(empty); err != ErrNoCheckpoint {
		t.Errorf("Latest over junk = %v, want ErrNoCheckpoint", err)
	}
}

// FuzzDecode: arbitrary bytes must never panic Decode, and anything that
// decodes must re-encode to the very same bytes.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []*Checkpoint{
		sampleCheckpoint(rng, OpCholesky, 6, 6, 2, 1),
		sampleCheckpoint(rng, OpLU, 5, 4, 2, 1),
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(v1LUSnapshot())
	f.Add(v2CholSnapshot())
	f.Add(header(int(OpCholesky), 0, 1<<20, 1<<20, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			t.Fatalf("re-encode of decoded checkpoint failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decoded checkpoint re-encodes to other bytes")
		}
	})
}

// FuzzRoundTrip: structured checkpoints built from fuzzed parameters
// round-trip with a bitwise-equal matrix and an identical frontier step.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(5), uint8(2), uint16(3), false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(8), uint8(8), uint8(4), uint16(1), true, []byte{0xff, 0, 0x80, 7})
	f.Fuzz(func(t *testing.T, m8, n8, nb8 uint8, step uint16, lu bool, raw []byte) {
		m, n, nb := int(m8%32)+1, int(n8%32)+1, int(nb8%8)+1
		// Fill the matrix from the raw bytes as bit patterns — NaNs,
		// infinities, subnormals and all.
		data := make([]float64, m*n)
		for i := range data {
			var w [8]byte
			for j := 0; j < 8; j++ {
				if len(raw) > 0 {
					w[j] = raw[(i*8+j)%len(raw)]
				}
			}
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		c := &Checkpoint{Op: OpCholesky, Step: int(step), A: tile.FromColMajor(m, n, data, m, nb)}
		if lu {
			c.Op = OpLU
			for _, b := range raw {
				c.Piv = append(c.Piv, int(int8(b)))
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkEqual(t, got, c)
	})
}
