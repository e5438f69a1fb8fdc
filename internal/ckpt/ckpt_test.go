package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func sampleCheckpoint(rng *rand.Rand, op Op, m, n, nb, step int) *Checkpoint {
	c := &Checkpoint{Op: op, Step: step, M: m, N: n, NB: nb, Data: make([]float64, m*n)}
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	c.Data[0] = math.Copysign(0, -1)
	if len(c.Data) > 2 {
		c.Data[1] = math.SmallestNonzeroFloat64
		c.Data[2] = math.Inf(1)
	}
	if op == OpLU {
		c.Piv = make([]int, min(step*nb, m, n))
		for r := range c.Piv {
			c.Piv[r] = r + rng.Intn(m-r)
		}
	}
	return c
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
	out := append([]byte("EXADLAC1"), binary.LittleEndian.AppendUint64(nil, uint64(len(p)))...)
	out = append(out, p...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
}

func checkEqual(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.Op != want.Op || got.Step != want.Step ||
		got.M != want.M || got.N != want.N || got.NB != want.NB {
		t.Fatalf("header mismatch: got %+v want %+v",
			[5]int{int(got.Op), got.Step, got.M, got.N, got.NB},
			[5]int{int(want.Op), want.Step, want.M, want.N, want.NB})
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("data length %d != %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("data[%d]: %x != %x", i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
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
	for _, cut := range []int{0, 7, 15, 16, 20, len(good) - 5, len(good) - 1} {
		if _, err := Decode(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncated to %d bytes decoded successfully", cut)
		}
	}
	// A flipped payload bit must fail the CRC.
	bad := append([]byte(nil), good...)
	bad[40] ^= 0x10
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("bit-flipped checkpoint decoded successfully")
	}
	// Bad magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 'X'
	if _, err := Decode(bytes.NewReader(bad2)); err == nil {
		t.Error("bad magic accepted")
	}
	// A version-1 snapshot — incremental-pivoting LU state, valid CRC — is
	// refused with a typed error rather than misread.
	var ve *VersionError
	if _, err := Decode(bytes.NewReader(v1LUSnapshot())); !errors.As(err, &ve) || ve.Version != 1 {
		t.Errorf("version-1 LU snapshot: got %v, want *VersionError{1}", err)
	}
	// A huge declared payload length must be rejected before allocation.
	var huge [28]byte
	copy(huge[:8], magic[:])
	binary.LittleEndian.PutUint64(huge[8:], 1<<40)
	if _, err := Decode(bytes.NewReader(huge[:])); err == nil {
		t.Error("oversized payload length accepted")
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
// decodes must survive a re-encode/re-decode round trip bitwise.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			t.Fatalf("re-encode of decoded checkpoint failed: %v", err)
		}
		c2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		checkEqual(t, c2, c)
	})
}

// FuzzRoundTrip: structured checkpoints built from fuzzed parameters
// round-trip with a bitwise-equal matrix and an identical frontier step.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(5), uint8(2), uint16(3), false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(8), uint8(8), uint8(4), uint16(1), true, []byte{0xff, 0, 0x80, 7})
	f.Fuzz(func(t *testing.T, m8, n8, nb8 uint8, step uint16, lu bool, raw []byte) {
		m, n, nb := int(m8%32)+1, int(n8%32)+1, int(nb8%8)+1
		c := &Checkpoint{Op: OpCholesky, Step: int(step), M: m, N: n, NB: nb,
			Data: make([]float64, m*n)}
		if lu {
			c.Op = OpLU
		}
		// Fill the matrix from the raw bytes as bit patterns — NaNs,
		// infinities, subnormals and all.
		for i := range c.Data {
			var w [8]byte
			for j := 0; j < 8; j++ {
				if len(raw) > 0 {
					w[j] = raw[(i*8+j)%len(raw)]
				}
			}
			c.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		if lu {
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
