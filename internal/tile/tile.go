// Package tile implements the tiled matrix layout used by the tile
// algorithms: the matrix is stored as an MT×NT grid of nb×nb column-major
// tiles, each in its own contiguous allocation. Tiles are the unit of both
// data locality and dependence tracking — a tile's identity doubles as the
// scheduler handle for the data it holds.
package tile

import (
	"fmt"

	"exadla/internal/blas"
	"exadla/internal/sched"
)

// Matrix is an M×N matrix stored as a grid of NB×NB column-major tiles.
// Boundary tiles are trimmed to the remaining rows/columns.
type Matrix[T blas.Float] struct {
	// M and N are the global matrix dimensions.
	M, N int
	// NB is the tile size.
	NB int
	// MT and NT are the number of tile rows and tile columns.
	MT, NT int

	tiles [][]T // nil while the matrix is deferred
	id    *int  // unique identity for scheduler handles

	// fill writes a deferred matrix's tile (i, j) into dst, until Fills
	// hands it over (see DeferredFunc).
	fill func(i, j int, dst []T)
}

// Handle identifies one tile of one matrix for dependence tracking.
type Handle struct {
	mat  *int
	i, j int
}

var _ sched.Handle = Handle{}

// Coords returns the tile-grid coordinates the handle names, for placement
// and communication analyses.
func (h Handle) Coords() (i, j int) { return h.i, h.j }

// New allocates an M×N tiled matrix with tile size nb, zero-initialized.
func New[T blas.Float](m, n, nb int) *Matrix[T] {
	return Deferred[T](m, n, nil, 0, nb).Fill()
}

// Deferred returns the m×n matrix held column-major, with leading dimension
// lda, in src, tiled at nb: a DeferredFunc matrix whose fill copies each
// tile in from src, so src must not change until the tiles are filled. A
// nil src fills zero tiles.
func Deferred[T blas.Float](m, n int, src []T, lda, nb int) *Matrix[T] {
	a := DeferredFunc[T](m, n, nb, nil)
	if src != nil {
		a.fill = func(i, j int, dst []T) {
			tr := a.TileRows(i)
			for jj := range a.TileCols(j) {
				off := i*nb + (j*nb+jj)*lda
				copy(dst[jj*tr:(jj+1)*tr], src[off:off+tr])
			}
		}
	}
	return a
}

// DeferredFunc returns an m×n matrix tiled at nb that has its shape and
// handles but no tiles until they are filled, one by one through Fills:
// fill(i, j, dst) writes tile (i, j) into dst, zeroed and column-major with
// leading dimension TileRows(i). It may run concurrently for distinct
// tiles, and again for a tile whose fill task is retried, so it must
// assign rather than accumulate. A nil fill leaves the tiles zero.
func DeferredFunc[T blas.Float](m, n, nb int, fill func(i, j int, dst []T)) *Matrix[T] {
	if m < 0 || n < 0 || nb < 1 {
		panic(fmt.Sprintf("tile: invalid dimensions %d×%d nb=%d", m, n, nb))
	}
	mt := (m + nb - 1) / nb
	nt := (n + nb - 1) / nb
	return &Matrix[T]{M: m, N: n, NB: nb, MT: max(mt, 1), NT: max(nt, 1), id: new(int), fill: fill}
}

// Fills returns, for a deferred matrix, one function per tile — tile
// (i, j)'s at index i+j·MT — that allocates the tile and runs the fill on
// it, and detaches the matrix from its fill; it returns nil once the tiles
// exist. Each function runs before anything reads its tile; they may run
// concurrently.
func (a *Matrix[T]) Fills() []func() {
	if a.tiles != nil {
		return nil
	}
	fill := a.fill
	a.fill, a.tiles = nil, make([][]T, a.MT*a.NT)
	fills := make([]func(), len(a.tiles))
	for t := range fills {
		i, j := t%a.MT, t/a.MT
		fills[t] = func() {
			start, tr, tc := convertStart(), a.TileRows(i), a.TileCols(j)
			a.tiles[t] = make([]T, tr*tc)
			if fill != nil {
				fill(i, j, a.tiles[t])
				convertDone(start, int64(tr*tc))
			}
		}
	}
	return fills
}

// Fill runs every fill a still owes (see Fills) in turn and returns a.
func (a *Matrix[T]) Fill() *Matrix[T] {
	for _, fill := range a.Fills() {
		fill()
	}
	return a
}

// Assemble gives a deferred matrix without a fill its tiles in place of its
// fills, tile (i, j) at tiles[i+j·MT] (see SetTile), and returns a.
func (a *Matrix[T]) Assemble(tiles [][]T) *Matrix[T] {
	if a.tiles != nil || a.fill != nil || len(tiles) != a.MT*a.NT {
		panic("tile: Assemble needs a deferred matrix without a fill and one slice per tile")
	}
	a.tiles = make([][]T, len(tiles))
	for t, d := range tiles {
		a.SetTile(t%a.MT, t/a.MT, d)
	}
	return a
}

// TileRows returns the row count of tiles in tile-row i.
func (a *Matrix[T]) TileRows(i int) int {
	if i < 0 || i >= a.MT {
		panic("tile: tile row out of range")
	}
	if r := a.M - i*a.NB; r < a.NB {
		return max(r, 0)
	}
	return a.NB
}

// TileCols returns the column count of tiles in tile-column j.
func (a *Matrix[T]) TileCols(j int) int {
	if j < 0 || j >= a.NT {
		panic("tile: tile column out of range")
	}
	if c := a.N - j*a.NB; c < a.NB {
		return max(c, 0)
	}
	return a.NB
}

// Tile returns the backing slice of tile (i, j), column-major with leading
// dimension TileRows(i).
func (a *Matrix[T]) Tile(i, j int) []T {
	return a.tiles[i+j*a.MT]
}

// SetTile replaces the backing slice of tile (i, j). The slice must have
// exactly TileRows(i)·TileCols(j) elements. It is used by fault-recovery
// code that swaps in reconstructed tiles.
func (a *Matrix[T]) SetTile(i, j int, data []T) {
	if len(data) != a.TileRows(i)*a.TileCols(j) {
		panic("tile: SetTile size mismatch")
	}
	a.tiles[i+j*a.MT] = data
}

// Handle returns the scheduler handle naming tile (i, j).
func (a *Matrix[T]) Handle(i, j int) Handle {
	if i < 0 || i >= a.MT || j < 0 || j >= a.NT {
		panic("tile: handle out of range")
	}
	return Handle{mat: a.id, i: i, j: j}
}

// At returns element (i, j) in global coordinates. It is intended for tests
// and small drivers, not inner loops.
func (a *Matrix[T]) At(i, j int) T {
	ti, tj := i/a.NB, j/a.NB
	ii, jj := i%a.NB, j%a.NB
	return a.Tile(ti, tj)[ii+jj*a.TileRows(ti)]
}

// Set assigns element (i, j) in global coordinates.
func (a *Matrix[T]) Set(i, j int, v T) {
	ti, tj := i/a.NB, j/a.NB
	ii, jj := i%a.NB, j%a.NB
	a.Tile(ti, tj)[ii+jj*a.TileRows(ti)] = v
}

// FromColMajor converts an m×n column-major matrix with leading dimension
// lda into tiled layout with tile size nb.
func FromColMajor[T blas.Float](m, n int, src []T, lda, nb int) *Matrix[T] {
	return Deferred(m, n, src, lda, nb).Fill()
}

// ToColMajor converts the tiled matrix back to column-major with leading
// dimension m.
func (a *Matrix[T]) ToColMajor() []T {
	out := make([]T, a.M*a.N)
	for j := range a.NT {
		for i := range a.MT {
			a.TileTo(out, i, j)
		}
	}
	return out
}

// TileTo copies tile (i, j) to its place in out, the matrix column-major
// with leading dimension M.
func (a *Matrix[T]) TileTo(out []T, i, j int) {
	start := convertStart()
	tr, tc, t := a.TileRows(i), a.TileCols(j), a.Tile(i, j)
	for jj := range tc {
		off := i*a.NB + (j*a.NB+jj)*a.M
		copy(out[off:off+tr], t[jj*tr:(jj+1)*tr])
	}
	convertDone(start, int64(tr*tc))
}
