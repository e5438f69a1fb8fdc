// Package ckpt serializes factorization checkpoints: a consistent
// snapshot of the tile matrix plus the DAG frontier (the next panel step)
// and, for LU, the pivots the completed steps chose. The format is
// self-contained binary — a versioned magic, a length-prefixed payload of
// fixed-width little-endian words, and a CRC32 trailer — so a checkpoint
// survives process death and partial writes are rejected rather than
// resumed from.
//
// Bitwise fidelity is part of the contract: float64 values are stored as
// their IEEE-754 bit patterns, so a run resumed from a checkpoint
// continues from *exactly* the aborted run's state and (the kernels being
// deterministic) finishes with a factor bitwise identical to an
// uninterrupted run. That is the property the restart tests assert.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Op identifies the factorization a checkpoint belongs to.
type Op uint8

const (
	OpCholesky Op = 1
	OpLU       Op = 2
	// OpLUNoPiv is the distributed runtime's right-looking LU without
	// pivoting (internal/dist): no pivot state, so a checkpoint is the
	// matrix snapshot and frontier step alone, exactly like Cholesky.
	OpLUNoPiv Op = 3
)

func (op Op) String() string {
	switch op {
	case OpCholesky:
		return "cholesky"
	case OpLU:
		return "lu"
	case OpLUNoPiv:
		return "lu-nopiv"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Checkpoint is one consistent factorization snapshot: every panel step
// before Step has fully executed, none after it has started.
type Checkpoint struct {
	Op   Op
	Step int // next panel step to execute on resume
	M, N int // matrix dimensions
	NB   int // tile size
	// Data is the column-major matrix snapshot (M×N, leading dimension M).
	Data []float64
	// Piv is the prefix of core.Factors.Piv the completed steps wrote —
	// the pivots of rows 0 … min(Step·NB, M, N)−1; empty for the pivot-free
	// operations.
	Piv []int
}

// version is the format this build writes and reads; it is the last byte
// of the magic. Version 1 carried incremental-pivoting LU state.
const version = 2

var (
	magic = [8]byte{'E', 'X', 'A', 'D', 'L', 'A', 'C', '0' + version}

	// ErrNoCheckpoint is returned by Latest when the directory holds no
	// loadable checkpoint.
	ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")
)

// VersionError reports a checkpoint in a format version this build does
// not read.
type VersionError struct{ Version int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: format version %d is not readable (this build reads version %d)", e.Version, version)
}

// Caps keep Decode from trusting hostile or torn length fields with huge
// allocations; they bound, not model, real checkpoint sizes.
const (
	maxPayload = 1 << 31 // bytes
	maxDim     = 1 << 20 // M, N
	maxList    = 1 << 24 // pivot list length
)

// Encode writes the checkpoint to w.
func Encode(w io.Writer, c *Checkpoint) error {
	if len(c.Data) != c.M*c.N {
		return fmt.Errorf("ckpt: Data has %d elements for a %d×%d matrix", len(c.Data), c.M, c.N)
	}
	var buf bytes.Buffer
	putU8 := func(v uint8) { buf.WriteByte(v) }
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	putU8(uint8(c.Op))
	putU32(uint32(c.Step))
	putU32(uint32(c.M))
	putU32(uint32(c.N))
	putU32(uint32(c.NB))
	for _, v := range c.Data {
		putU64(math.Float64bits(v))
	}
	putU32(uint32(len(c.Piv)))
	for _, v := range c.Piv {
		putU64(uint64(int64(v)))
	}

	payload := buf.Bytes()
	var hdr [16]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(tail[:])
	return err
}

// payloadReader parses fixed-width words out of a validated payload,
// latching the first error.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (r *payloadReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("truncated payload")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *payloadReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// ints reads a length-prefixed list of 64-bit integers; an empty list
// reads as nil, and a length beyond maxList or the remaining payload is
// rejected.
func (r *payloadReader) ints() []int {
	n := r.u32()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > maxList || int(n)*8 > len(r.b) {
		r.fail("list length %d exceeds payload", n)
		return nil
	}
	l := make([]int, n)
	for i := range l {
		l[i] = int(int64(r.u64()))
	}
	return l
}

// Decode reads one checkpoint from r, verifying magic, length, and CRC
// before trusting any field. A checkpoint of another format version is
// refused with a *VersionError.
func Decode(rd io.Reader) (*Checkpoint, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	if !bytes.Equal(hdr[:7], magic[:7]) {
		return nil, errors.New("ckpt: bad magic")
	}
	if hdr[7] != magic[7] {
		return nil, &VersionError{Version: int(hdr[7]) - '0'}
	}
	plen := binary.LittleEndian.Uint64(hdr[8:])
	if plen > maxPayload {
		return nil, fmt.Errorf("ckpt: payload length %d exceeds cap", plen)
	}
	// Read incrementally rather than pre-allocating plen bytes: a torn or
	// hostile header may declare a payload far larger than the file.
	payload, err := io.ReadAll(io.LimitReader(rd, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading payload: %w", err)
	}
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("ckpt: payload truncated (%d of %d bytes)", len(payload), plen)
	}
	var tail [4]byte
	if _, err := io.ReadFull(rd, tail[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (%08x != %08x)", got, want)
	}

	r := &payloadReader{b: payload}
	c := &Checkpoint{}
	c.Op = Op(r.u8())
	c.Step = int(r.u32())
	c.M = int(r.u32())
	c.N = int(r.u32())
	c.NB = int(r.u32())
	if r.err == nil {
		switch {
		case c.Op != OpCholesky && c.Op != OpLU && c.Op != OpLUNoPiv:
			r.fail("unknown op %d", uint8(c.Op))
		case c.M <= 0 || c.N <= 0 || c.M > maxDim || c.N > maxDim:
			r.fail("bad dimensions %d×%d", c.M, c.N)
		case c.NB <= 0 || c.NB > maxDim:
			r.fail("bad tile size %d", c.NB)
		case c.Step < 0 || c.Step > maxDim:
			r.fail("bad step %d", c.Step)
		case c.M*c.N*8 > len(r.b):
			r.fail("matrix data exceeds payload")
		}
	}
	if r.err == nil {
		c.Data = make([]float64, c.M*c.N)
		for i := range c.Data {
			c.Data[i] = math.Float64frombits(r.u64())
		}
	}
	c.Piv = r.ints()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes in payload", len(r.b))
	}
	return c, nil
}

// fileName is the canonical checkpoint file name for a frontier step.
func fileName(step int) string { return fmt.Sprintf("ckpt-%06d.ckpt", step) }

// syncWriter is what Save needs from its temp file. The indirection below
// lets tests wrap the file in a failure injector (short writes, a failing
// fsync or close — the shapes a full disk takes) and assert that no torn
// checkpoint ever becomes visible to Latest.
type syncWriter interface {
	io.Writer
	Sync() error
	Close() error
}

// newSaveFile wraps the freshly created temp file; tests swap it.
var newSaveFile = func(f *os.File) syncWriter { return f }

// Save atomically writes the checkpoint into dir as ckpt-<step>.ckpt:
// write to a temp file, fsync it, and only if every byte landed durably
// rename it into place (then fsync the directory so the rename itself
// survives a crash). Creates dir if needed and returns the final path. On
// any failure the temp file is removed and the error returned — a reader
// never observes a torn or truncated checkpoint, only the previous one.
func Save(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	w := newSaveFile(tmp)
	if err := Encode(w, c); err != nil {
		w.Close()
		return "", err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return "", err
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fileName(c.Step))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	// Make the rename durable too; best-effort — the data itself is synced.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return path, nil
}

// Load reads and validates one checkpoint file.
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Latest loads the newest valid checkpoint in dir (highest step whose
// file decodes cleanly — corrupt or torn files are skipped), returning
// the checkpoint and its path, or ErrNoCheckpoint.
func Latest(dir string) (*Checkpoint, string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, n := range names {
		p := filepath.Join(dir, n)
		c, err := Load(p)
		if err == nil {
			return c, p, nil
		}
	}
	return nil, "", ErrNoCheckpoint
}
