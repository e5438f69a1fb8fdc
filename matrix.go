package exadla

import (
	"fmt"
	"math/rand"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// Matrix is a dense float64 matrix in column-major order. The zero value is
// not usable; construct with NewMatrix or FromSlice.
type Matrix struct {
	rows, cols int
	data       []float64 // column-major, leading dimension == rows
}

// NewMatrix allocates a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("exadla: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice wraps existing column-major data (leading dimension rows) in a
// Matrix without copying. len(data) must be rows·cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("exadla: FromSlice got %d elements for %d×%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// Dims returns the matrix dimensions.
func (m *Matrix) Dims() (rows, cols int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i+j*m.rows]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i+j*m.rows] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("exadla: index (%d,%d) out of %d×%d", i, j, m.rows, m.cols))
	}
}

// Data exposes the backing column-major storage (leading dimension = row
// count). Mutating it mutates the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{rows: m.rows, cols: m.cols, data: append([]float64(nil), m.data...)}
}

// Norm computes a matrix norm: exadla.One, Inf, Frobenius, or Max.
func (m *Matrix) Norm(n NormKind) float64 {
	return lapack.Lange(lapack.Norm(n), m.rows, m.cols, m.data, m.rows)
}

// NormKind selects a matrix norm for Matrix.Norm.
type NormKind byte

// Supported norms.
const (
	One       NormKind = NormKind(lapack.OneNorm)
	Inf       NormKind = NormKind(lapack.InfNorm)
	Frobenius NormKind = NormKind(lapack.FrobeniusNorm)
	Max       NormKind = NormKind(lapack.MaxAbs)
)

// RandomGeneral returns a rows×cols matrix of standard normal entries.
func RandomGeneral(rng *rand.Rand, rows, cols int) *Matrix {
	return FromSlice(rows, cols, matgen.Dense[float64](rng, rows, cols))
}

// RandomSPD returns an n×n well-conditioned symmetric positive definite
// matrix (O(n²) generation).
func RandomSPD(rng *rand.Rand, n int) *Matrix {
	return FromSlice(n, n, matgen.DiagDomSPD[float64](rng, n))
}

// RandomSPDWithCond returns an n×n SPD matrix with the given 2-norm
// condition number (O(n³) generation).
func RandomSPDWithCond(rng *rand.Rand, n int, cond float64) *Matrix {
	return FromSlice(n, n, matgen.SPDWithCond[float64](rng, n, cond))
}

// RandomWithCond returns a rows×cols matrix with the given 2-norm condition
// number.
func RandomWithCond(rng *rand.Rand, rows, cols int, cond float64) *Matrix {
	return FromSlice(rows, cols, matgen.WithCond[float64](rng, rows, cols, cond))
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	return FromSlice(n, n, matgen.Identity[float64](n))
}

// Multiply computes C = A·B on the Context's worker pool using tiled GEMM.
// A task that fails permanently (see WithChaos and WithTaskRetry) is
// returned as the scheduler's *FailuresError, which names each failed
// kernel.
func (c *Context) Multiply(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("exadla: Multiply dims %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols)
	}
	ta := tile.FromColMajor(a.rows, a.cols, a.data, a.rows, c.tileSize)
	tb := tile.FromColMajor(b.rows, b.cols, b.data, b.rows, c.tileSize)
	tc := tile.New[float64](a.rows, b.cols, c.tileSize)
	s := c.scheduler()
	core.Gemm(s, ta, tb, tc)
	if err := s.WaitErr(); err != nil {
		return nil, err
	}
	return FromSlice(a.rows, b.cols, tc.ToColMajor()), nil
}

// Residual returns ‖B − A·X‖∞ / (‖A‖∞·‖X‖∞ + ‖B‖∞), the normwise backward
// error of X as a solution of A·X = B — the quantity EXPERIMENTS.md reports.
func Residual(a, x, b *Matrix) float64 {
	r := b.Clone()
	blas.Gemm(blas.NoTrans, blas.NoTrans, b.rows, b.cols, a.cols,
		-1, a.data, a.rows, x.data, x.rows, 1, r.data, r.rows)
	den := a.Norm(Inf)*x.Norm(Inf) + b.Norm(Inf)
	if den == 0 {
		return r.Norm(Inf)
	}
	return r.Norm(Inf) / den
}
