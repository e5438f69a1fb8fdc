package blas

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"exadla/internal/metrics"
)

// Tests of the shared packed operands (Packed, GemmPrepacked,
// SyrkPrepacked): a product that reads a pre-packed operand is bitwise the
// product that packs for itself — over the edge geometries, every
// transpose, float32, operands deeper and wider than one cache block, and a
// blocking changed between pack and use — and a product on the axpy path
// neither makes nor reads a pack.

// smallBlocking has cache blocks a few register tiles wide, so the edge
// sweeps span several row, depth and column blocks. Its nc is not a
// multiple of the 8-row tile, which puts Syrk's lower row blocks off a
// shared A pack's sliver grid.
var smallBlocking = Blocking{MR: 8, NR: 4, MC: 8, KC: 5, NC: 12}

// smallBlocking32 is smallBlocking for float32, whose 16-row tile runs only
// where 16 rows divide MC (under smallBlocking it falls back to 4×4); nc is
// again off the tile's row grid.
var smallBlocking32 = Blocking{MR: 8, NR: 4, MC: 16, KC: 5, NC: 12}

// useBlocking installs b for the rest of the test.
func useBlocking(t *testing.T, b Blocking) {
	t.Helper()
	old := GemmBlocking()
	SetGemmBlocking(b)
	t.Cleanup(func() { SetGemmBlocking(old) })
}

// randOf is randPadded converted to T.
func randOf[T Float](rng *rand.Rand, m, n, ld int) []T {
	s := randPadded(rng, m, n, ld)
	out := make([]T, len(s))
	for i, v := range s {
		out[i] = T(v)
	}
	return out
}

// sameBits reports the first index where got and want differ in their
// bits, or −1.
func sameBits[T Float](got, want []T) int {
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i
		}
	}
	return -1
}

// gemmCase is one product with its operands.
type gemmCase[T Float] struct {
	transA, transB Transpose
	m, n, k        int
	a, b, c        []T
	lda, ldb, ldc  int
}

func newGemmCase[T Float](rng *rand.Rand, transA, transB Transpose, m, n, k int) gemmCase[T] {
	ar, ac := m, k
	if transA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB == Trans {
		br, bc = n, k
	}
	pad := 1 + (m+n+k)%3
	g := gemmCase[T]{transA: transA, transB: transB, m: m, n: n, k: k,
		lda: ar + pad, ldb: br + pad, ldc: m + pad}
	g.a = randOf[T](rng, ar, ac, g.lda)
	g.b = randOf[T](rng, br, bc, g.ldb)
	g.c = randOf[T](rng, m, n, g.ldc)
	return g
}

// run computes the product into a copy of C, reading op(A) from pa and
// op(B) from pb.
func (g gemmCase[T]) run(pa, pb *Packed[T]) []T {
	c := append([]T(nil), g.c...)
	GemmPrepacked(g.transA, g.transB, g.m, g.n, g.k, 1.25, g.a, g.lda, pa, g.b, g.ldb, pb, 0.5, c, g.ldc)
	return c
}

// check runs g with a shared pack of op(A), of op(B) and of both, twice
// each — the first product packs, the second reads the pack — optionally
// switching to blocking between the two, and demands Gemm's bits under
// the blocking in force.
func (g gemmCase[T]) check(t *testing.T, between *Blocking) {
	t.Helper()
	for _, use := range []struct{ a, b bool }{{true, false}, {false, true}, {true, true}} {
		var pa, pb *Packed[T]
		if use.a {
			pa = new(Packed[T])
		}
		if use.b {
			pb = new(Packed[T])
		}
		first, want := g.run(pa, pb), g.run(nil, nil)
		if i := sameBits(first, want); i >= 0 {
			t.Fatalf("%v%v m=%d n=%d k=%d packs %v: first product differs at %d", g.transA, g.transB, g.m, g.n, g.k, use, i)
		}
		old := GemmBlocking()
		if between != nil {
			SetGemmBlocking(*between)
			want = g.run(nil, nil)
		}
		second := g.run(pa, pb)
		SetGemmBlocking(old)
		if i := sameBits(second, want); i >= 0 {
			t.Fatalf("%v%v m=%d n=%d k=%d packs %v: pre-packed product differs at %d", g.transA, g.transB, g.m, g.n, g.k, use, i)
		}
		for _, p := range []*Packed[T]{pa, pb} {
			if p != nil {
				p.Release()
			}
		}
	}
}

// sweepLimits are the largest dimensions of T's edge sweeps: columns and
// depth to two installed MR-row tiles and one (past the 4-column tile, the
// ×2 depth unrolling and the small cache blocks), rows as far or to two of
// T's register tiles and one if those are taller; under the race detector,
// which slows the sweeps twentyfold, one tile and one each.
func sweepLimits[T Float]() (rows, cols int) {
	mr, _ := registerTile[T](GemmBlocking())
	tile := GemmBlocking().MR
	if raceEnabled {
		return max(mr, tile) + 1, tile + 1
	}
	return 2*max(mr, tile) + 1, 2*tile + 1
}

// prepackedSweep checks every edge geometry around the register tile, all
// four transpose cases, on the packed path.
func prepackedSweep[T Float](t *testing.T, between *Blocking) {
	forcePath(t, true)
	rows, cols := sweepLimits[T]()
	rng := rand.New(rand.NewSource(37))
	for _, transA := range []Transpose{NoTrans, Trans} {
		for _, transB := range []Transpose{NoTrans, Trans} {
			for m := 1; m <= rows; m++ {
				for n := 1; n <= cols; n++ {
					for k := 1; k <= cols; k++ {
						newGemmCase[T](rng, transA, transB, m, n, k).check(t, between)
					}
				}
			}
		}
	}
}

func TestGemmPrepackedEdgeSweep(t *testing.T) {
	prepackedSweep[float64](t, nil)
}

func TestGemmPrepackedEdgeSweepFloat32(t *testing.T) {
	prepackedSweep[float32](t, nil)
}

// TestGemmPrepackedSmallBlocks runs the sweep under a tuned blocking whose
// cache blocks the operands outgrow in every dimension, depth > KC included.
func TestGemmPrepackedSmallBlocks(t *testing.T) {
	useBlocking(t, smallBlocking)
	prepackedSweep[float64](t, nil)
	prepackedSweep[float32](t, nil)
	useBlocking(t, smallBlocking32)
	prepackedSweep[float32](t, nil)
}

// TestGemmPrepackedBlockingChanged packs under one blocking and reads
// under another: the product must pack for itself.
func TestGemmPrepackedBlockingChanged(t *testing.T) {
	useBlocking(t, smallBlocking)
	prepackedSweep[float64](t, &Blocking{MR: 4, NR: 4, MC: 12, KC: 7, NC: 8})
	useBlocking(t, DefaultBlocking())
	prepackedSweep[float64](t, &smallBlocking)
}

// checkSyrkPrepacked checks SyrkPrepacked against Syrk bit for bit, with
// the packs made by the Syrk itself or first by the Gemm that reads op(A)
// as its A operand and op(A)ᵀ as its B operand, as Cholesky's updates do.
func checkSyrkPrepacked[T Float](t *testing.T, rng *rand.Rand, uplo Uplo, trans Transpose, n, k int) {
	t.Helper()
	ar, ac := n, k
	if trans == Trans {
		ar, ac = k, n
	}
	lda, ldc := ar+1, n+2
	a := randOf[T](rng, ar, ac, lda)
	c0 := randOf[T](rng, n, n, ldc)
	want := append([]T(nil), c0...)
	Syrk(uplo, trans, n, k, -1, a, lda, 1, want, ldc)
	for _, byGemm := range []bool{false, true} {
		pa, pb := new(Packed[T]), new(Packed[T])
		if byGemm {
			g := make([]T, n*n)
			GemmPrepacked(trans, flipTrans(trans), n, n, k, 1, a, lda, pa, a, lda, pb, 0, g, n)
		}
		for range 2 {
			got := append([]T(nil), c0...)
			SyrkPrepacked(uplo, trans, n, k, -1, a, lda, pa, pb, 1, got, ldc)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("Syrk %v %v n=%d k=%d (packed by Gemm %v): differs at %d", uplo, trans, n, k, byGemm, i)
			}
		}
		pa.Release()
		pb.Release()
	}
}

func syrkPrepackedSweep[T Float](t *testing.T) {
	forcePath(t, true)
	rows, cols := sweepLimits[T]()
	rng := rand.New(rand.NewSource(41))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for n := 1; n <= rows; n++ {
				for k := 1; k <= cols; k++ {
					checkSyrkPrepacked[T](t, rng, uplo, trans, n, k)
				}
			}
		}
	}
}

func TestSyrkPrepackedEdgeSweep(t *testing.T) {
	syrkPrepackedSweep[float64](t)
	syrkPrepackedSweep[float32](t)
	useBlocking(t, smallBlocking)
	syrkPrepackedSweep[float64](t)
	syrkPrepackedSweep[float32](t)
	useBlocking(t, smallBlocking32)
	syrkPrepackedSweep[float32](t)
}

// TestPrepackedAxpyPath: a product Gemm runs on the axpy kernels — too
// thin (n < NR) or too small — leaves a shared pack empty.
func TestPrepackedAxpyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nr := GemmBlocking().NR
	for _, shape := range [][3]int{{40, nr - 1, 40}, {4, 4, 4}} {
		g := newGemmCase[float64](rng, NoTrans, NoTrans, shape[0], shape[1], shape[2])
		pa, pb := new(Packed[float64]), new(Packed[float64])
		if i := sameBits(g.run(pa, pb), g.run(nil, nil)); i >= 0 {
			t.Fatalf("%v: differs at %d", shape, i)
		}
		if pa.ready || pb.ready {
			t.Errorf("%v: an axpy-path product packed a shared operand", shape)
		}
	}
}

// TestPrepackedRetryAfterPanic: a product that panics while packing a
// shared operand leaves it empty, and the next one packs it afresh.
func TestPrepackedRetryAfterPanic(t *testing.T) {
	forcePath(t, true)
	rng := rand.New(rand.NewSource(47))
	g := newGemmCase[float64](rng, NoTrans, NoTrans, 20, 20, 20)
	p := new(Packed[float64])
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("packing a short operand did not panic")
			}
		}()
		// Columns past the first few are missing: the pack fails midway.
		p.operand(GemmBlocking(), false, NoTrans, g.a[:3*g.lda:3*g.lda], g.lda, g.m, g.k)
	}()
	if i := sameBits(g.run(p, nil), g.run(nil, nil)); i >= 0 {
		t.Fatalf("product after a failed pack differs at %d", i)
	}
}

// TestPrepackedConcurrentReaders shares one pack of each operand among
// many concurrent products (meaningful under -race).
func TestPrepackedConcurrentReaders(t *testing.T) {
	forcePath(t, true)
	rng := rand.New(rand.NewSource(53))
	g := newGemmCase[float64](rng, NoTrans, Trans, 70, 60, 50)
	want := g.run(nil, nil)
	pa, pb := new(Packed[float64]), new(Packed[float64])
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i := sameBits(g.run(pa, pb), want); i >= 0 {
				errs <- fmt.Errorf("reader %d differs at %d", w, i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPackBytesCounter pins blas.pack.bytes: a product packing for itself
// charges its packed blocks, the first reader of a shared pack charges the
// whole pack, and later readers charge nothing.
func TestPackBytesCounter(t *testing.T) {
	reg := metrics.Enable()
	t.Cleanup(func() {
		metrics.Disable()
		metrics.Reset()
	})
	bytes := reg.Counter("blas.pack.bytes")
	forcePath(t, true)
	blk := GemmBlocking()
	mr, nr := registerTile[float64](blk)
	const m, n, k = 21, 10, 13
	rng := rand.New(rand.NewSource(59))
	g := newGemmCase[float64](rng, Trans, NoTrans, m, n, k)
	want := int64(8 * (roundUp(m, mr)*k + k*roundUp(n, nr)))
	pa, pb := new(Packed[float64]), new(Packed[float64])
	for _, c := range []struct {
		name   string
		pa, pb *Packed[float64]
		want   int64
	}{{"own packs", nil, nil, want}, {"first reader", pa, pb, want}, {"later reader", pa, pb, 0}} {
		metrics.Reset()
		g.run(c.pa, c.pb)
		if got := bytes.Load(); got != c.want {
			t.Errorf("%s: pack bytes %d, want %d", c.name, got, c.want)
		}
	}
}
