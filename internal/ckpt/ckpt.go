// Package ckpt serializes factorization checkpoints: a consistent
// snapshot of the tile matrix plus the DAG frontier (the next panel step)
// and, for LU, the pivots the completed steps chose. The format is a
// versioned magic followed by ft frames — one header frame, then one frame
// per tile in tile-column order, each sealed with its own CRC64 — so a
// checkpoint survives process death, partial writes are rejected rather
// than resumed from, and a tile is the same bytes on disk as on the dist
// wire.
//
// Bitwise fidelity is part of the contract: float64 values are stored as
// their IEEE-754 bit patterns, so a run resumed from a checkpoint
// continues from *exactly* the aborted run's state and (the kernels being
// deterministic) finishes with a factor bitwise identical to an
// uninterrupted run. That is the property the restart tests assert.
package ckpt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"exadla/internal/ft"
	"exadla/internal/tile"
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
	// A is the tile matrix snapshot; its M, N and NB are the checkpoint's
	// geometry. Encode writes its tiles as they are and Decode allocates
	// each tile as its frame arrives.
	A *tile.Matrix[float64]
	// Piv is the prefix of core.Factors.Piv the completed steps wrote —
	// the pivots of rows 0 … min(Step·NB, M, N)−1; empty for the pivot-free
	// operations.
	Piv []int
}

// version is the format this build writes and reads; it is the last byte
// of the magic. Version 1 carried incremental-pivoting LU state, version 2
// one column-major matrix under a 32-bit checksum.
const version = 3

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

// maxDim caps M, N, NB and Step, so Decode refuses absurd geometry before
// reading a tile; it bounds, not models, real checkpoint sizes.
const maxDim = 1 << 20

// Encode writes the checkpoint to w: the magic, the header frame — the
// words op, step, M, N, NB and the pivots, each as an element's bit
// pattern — then one frame per tile in tile-column order, each encoded
// straight from the tile.
func Encode(w io.Writer, c *Checkpoint) error {
	a := c.A
	var words []float64
	for _, v := range append([]int{int(c.Op), c.Step, a.M, a.N, a.NB}, c.Piv...) {
		words = append(words, math.Float64frombits(uint64(v)))
	}
	buf := ft.Frame{Kind: ft.FrameCheckpoint, Rows: 1, Cols: len(words)}.Append(magic[:], words)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for j := 0; j < a.NT; j++ {
		for i := 0; i < a.MT; i++ {
			buf = ft.TileFrame(a, i, j).Append(buf[:0], a.Tile(i, j))
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Decode reads one checkpoint from r. Every frame's checksum is verified
// before any of its fields is trusted, the tiles must be exactly the
// header's grid in tile-column order, and nothing may follow the last one.
// Tiles are allocated as their frames arrive, never from the header's
// claimed geometry. A checkpoint of another format version is refused with
// a *VersionError.
func Decode(rd io.Reader) (*Checkpoint, error) {
	r := bufio.NewReader(rd)
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading magic: %w", err)
	}
	if !bytes.Equal(m[:7], magic[:7]) {
		return nil, errors.New("ckpt: bad magic")
	}
	if m[7] != magic[7] {
		return nil, &VersionError{Version: int(m[7]) - '0'}
	}
	h, words, err := ft.ReadFrame(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: header: %w", err)
	}
	if h != (ft.Frame{Kind: ft.FrameCheckpoint, Rows: 1, Cols: h.Cols}) || h.Cols < 5 {
		return nil, fmt.Errorf("ckpt: bad header frame %+v", h)
	}
	v := make([]int, len(words))
	for k, w := range words {
		v[k] = int(math.Float64bits(w))
	}
	c := &Checkpoint{Op: Op(v[0]), Step: v[1], Piv: v[5:]}
	if c.Op != OpCholesky && c.Op != OpLU && c.Op != OpLUNoPiv || v[0] != int(c.Op) {
		return nil, fmt.Errorf("ckpt: unknown op %d", v[0])
	}
	if min(v[2], v[3], v[4]) <= 0 || max(v[2], v[3], v[4]) > maxDim || c.Step < 0 || c.Step > maxDim {
		return nil, fmt.Errorf("ckpt: bad geometry %d×%d, tile size %d, step %d", v[2], v[3], v[4], c.Step)
	}
	// The grid is only a shape until its tiles have arrived.
	a := tile.Deferred[float64](v[2], v[3], nil, 0, v[4])
	var tiles [][]float64
	for j := 0; j < a.NT; j++ {
		for i := 0; i < a.MT; i++ {
			f, data, err := ft.ReadFrame(r)
			if err != nil {
				return nil, fmt.Errorf("ckpt: tile (%d,%d): %w", i, j, err)
			}
			if want := ft.TileFrame(a, i, j); f != want {
				return nil, fmt.Errorf("ckpt: frame %+v where tile %+v belongs", f, want)
			}
			tiles = append(tiles, data)
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, errors.New("ckpt: trailing bytes after the last tile")
	}
	c.A = a.Assemble(tiles)
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
		if f, err := os.Open(p); err == nil {
			c, err := Decode(f)
			f.Close()
			if err == nil {
				return c, p, nil
			}
		}
	}
	return nil, "", ErrNoCheckpoint
}
