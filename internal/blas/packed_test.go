package blas

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"exadla/internal/metrics"
)

// Tests pinned to the packed register-blocked sweeps (Gemm, Syrk, Trsm,
// Trmm):
// exhaustive edge geometries around the register-tile size on both
// microkernels, non-finite propagation, pack pool reuse under concurrency,
// steady-state allocation freedom, and the flop-accounting contract of the
// metrics counters.

// forcePath pins Gemm to the packed or axpy kernel for the duration of the
// test by overriding the small-size cutover. Products thinner than the
// register tile (n < NR) take the axpy kernels either way.
func forcePath(t *testing.T, packed bool) {
	t.Helper()
	old := minPackedVolume
	if packed {
		minPackedVolume = 0
	} else {
		minPackedVolume = 1 << 62
	}
	t.Cleanup(func() { minPackedVolume = old })
}

// TestGemmPackedEdgeSweep drives the packed path through every geometry
// around the register tile: m, n, k ∈ {1..2·mr+1} crosses every partial-tile
// and partial-sliver combination for all four transpose cases, with leading
// dimensions strictly greater than minimal and sentinel-filled padding.
func TestGemmPackedEdgeSweep(t *testing.T) {
	limit := 2*GemmBlocking().MR + 1
	gemmEdgeSweep[float64](t, limit, limit)
}

// gemmEdgeSweep checks Gemm against RefGemm for m up to rows and n, k up
// to cols.
func gemmEdgeSweep[T Float](t *testing.T, rows, cols int) {
	forcePath(t, true)
	transes := []Transpose{NoTrans, Trans}
	rng := rand.New(rand.NewSource(31))
	for _, transA := range transes {
		for _, transB := range transes {
			for m := 1; m <= rows; m++ {
				for n := 1; n <= cols; n++ {
					for k := 1; k <= cols; k++ {
						ar, ac := m, k
						if transA == Trans {
							ar, ac = k, m
						}
						br, bc := k, n
						if transB == Trans {
							br, bc = n, k
						}
						pad := 1 + (m+n+k)%3
						lda, ldb, ldc := ar+pad, br+pad, m+pad
						a := randOf[T](rng, ar, ac, lda)
						b := randOf[T](rng, br, bc, ldb)
						c := randOf[T](rng, m, n, ldc)
						got := append([]T(nil), c...)
						want := append([]T(nil), c...)
						Gemm(transA, transB, m, n, k, 1.25, a, lda, b, ldb, 0.5, got, ldc)
						RefGemm(transA, transB, m, n, k, 1.25, a, lda, b, ldb, 0.5, want, ldc)
						checkPadding(t, "Gemm C", m, n, ldc, got)
						if d := maxAbsDiff(got, want); d > tolFor[T](1e-10, 1e-5)*float64(k+1) {
							t.Fatalf("transA=%v transB=%v m=%d n=%d k=%d: max diff %g", transA, transB, m, n, k, d)
						}
					}
				}
			}
		}
	}
}

// tolFor is the comparison tolerance for element type T: tol64 for float64
// and tol32 for float32, whose rounding unit is 2²⁹ times larger.
func tolFor[T Float](tol64, tol32 float64) float64 {
	if is32[T]() {
		return tol32
	}
	return tol64
}

// forcePortableKernel runs the rest of the test on the portable 4×4
// microkernel, the one every build without the AVX2+FMA assembly uses, by
// installing MR = 4.
func forcePortableKernel(t *testing.T) {
	t.Helper()
	old := GemmBlocking()
	SetGemmBlocking(Blocking{MR: 4})
	t.Cleanup(func() { SetGemmBlocking(old) })
}

// conditionedTriangle overwrites the na×na/ld matrix a so that either of
// its triangles is well conditioned: dominant diagonal, off-diagonal damped
// by na (a unit-diagonal triangle with N(0,1) entries is exponentially
// ill-conditioned, and substitution would amplify comparison noise).
func conditionedTriangle[T Float](a []T, na, ld int) {
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			if i == j {
				a[i+j*ld] = 2 + T(math.Abs(float64(a[i+j*ld])))
			} else {
				a[i+j*ld] /= T(na)
			}
		}
	}
}

// checkSyrk runs one Syrk against RefSyrk with sentinel-padded operands.
func checkSyrk[T Float](t *testing.T, rng *rand.Rand, uplo Uplo, trans Transpose, n, k int, alpha, beta T) {
	t.Helper()
	ar, ac := n, k
	if trans == Trans {
		ar, ac = k, n
	}
	pad := 1 + (n+k)%3
	lda, ldc := max(1, ar)+pad, max(1, n)+pad
	a := randOf[T](rng, ar, ac, lda)
	c := randOf[T](rng, n, n, ldc)
	got := append([]T(nil), c...)
	want := append([]T(nil), c...)
	Syrk(uplo, trans, n, k, alpha, a, lda, beta, got, ldc)
	RefSyrk(uplo, trans, n, k, alpha, a, lda, beta, want, ldc)
	checkPadding(t, "Syrk C", n, n, ldc, got)
	// want shares the untouched triangle, so this also pins it bit for bit.
	if d := maxAbsDiff(got, want); d > tolFor[T](1e-10, 1e-5)*float64(k+1) {
		t.Fatalf("Syrk %v %v n=%d k=%d α=%g: max diff %g", uplo, trans, n, k, alpha, d)
	}
}

// checkTrsm runs one Trsm against RefTrsm with a conditioned triangle and
// sentinel-padded operands.
func checkTrsm[T Float](t *testing.T, rng *rand.Rand, side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha T) {
	t.Helper()
	na := m
	if side == Right {
		na = n
	}
	pad := 1 + (m+n)%3
	lda, ldb := na+pad, m+pad
	a := randOf[T](rng, na, na, lda)
	conditionedTriangle(a, na, lda)
	b := randOf[T](rng, m, n, ldb)
	got := append([]T(nil), b...)
	want := append([]T(nil), b...)
	Trsm(side, uplo, trans, diag, m, n, alpha, a, lda, got, ldb)
	RefTrsm(side, uplo, trans, diag, m, n, alpha, a, lda, want, ldb)
	checkPadding(t, "Trsm B", m, n, ldb, got)
	if d := maxAbsDiff(got, want); d > tolFor[T](1e-12, 1e-5)*float64(na+1) {
		t.Fatalf("Trsm %v%v%v%v m=%d n=%d α=%g: max diff %g", side, uplo, trans, diag, m, n, alpha, d)
	}
}

// TestSyrkTrsmEdgeSweep drives the packed Syrk and Trsm sweeps through every
// geometry around the register tile — n, k (Syrk) and m, n (Trsm) in 1…17,
// which crosses every partial tile, partial sliver and the thin-RHS Trsv
// cutover — plus sizes crossing the MC/KC cache blocks (Syrk) and many
// triangle blocks (Trsm), for every uplo/trans/side/diag case and
// α ∈ {0, 1, −1, 0.7}; once on the installed microkernel and once on the
// portable 4×4 kernel.
func TestSyrkTrsmEdgeSweep(t *testing.T) {
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			if portable {
				forcePortableKernel(t)
			}
			rng := rand.New(rand.NewSource(47))
			alphas := []float64{0, 1, -1, 0.7}
			transes := []Transpose{NoTrans, Trans}
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, trans := range transes {
					for n := 1; n <= 17; n++ {
						for k := 1; k <= 17; k++ {
							for _, alpha := range alphas {
								checkSyrk(t, rng, uplo, trans, n, k, alpha, 0.5)
							}
						}
					}
					for _, d := range [][2]int{{300, 300}, {257, 3}, {5, 257}} {
						checkSyrk(t, rng, uplo, trans, d[0], d[1], 0.7, 0.5)
					}
					for _, side := range []Side{Left, Right} {
						for _, diag := range []Diag{NonUnit, Unit} {
							for m := 1; m <= 17; m++ {
								for n := 1; n <= 17; n++ {
									for _, alpha := range alphas {
										checkTrsm(t, rng, side, uplo, trans, diag, m, n, alpha)
									}
								}
							}
							for _, d := range [][2]int{{257, 40}, {40, 257}} {
								checkTrsm(t, rng, side, uplo, trans, diag, d[0], d[1], 0.7)
							}
						}
					}
				}
			}
		})
	}
}

// checkTrmm runs one Trmm against RefTrmm with sentinel-padded operands.
// The unreferenced triangle of A, and a unit diagonal, hold the sentinel
// too, so reading any of it blows the tolerance.
func checkTrmm[T Float](t *testing.T, rng *rand.Rand, side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha T) {
	t.Helper()
	na := m
	if side == Right {
		na = n
	}
	pad := 1 + (m+n)%3
	lda, ldb := na+pad, m+pad
	a := randOf[T](rng, na, na, lda)
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			if (uplo == Upper && i > j) || (uplo == Lower && i < j) || (i == j && diag == Unit) {
				a[i+j*lda] = padSentinel
			}
		}
	}
	b := randOf[T](rng, m, n, ldb)
	got := append([]T(nil), b...)
	want := append([]T(nil), b...)
	Trmm(side, uplo, trans, diag, m, n, alpha, a, lda, got, ldb)
	RefTrmm(side, uplo, trans, diag, m, n, alpha, a, lda, want, ldb)
	checkPadding(t, "Trmm B", m, n, ldb, got)
	if d := maxAbsDiff(got, want); d > tolFor[T](1e-12, 1e-5)*float64(na+1) {
		t.Fatalf("Trmm %v%v%v%v m=%d n=%d α=%g: max diff %g", side, uplo, trans, diag, m, n, alpha, d)
	}
}

// TestTrmmEdgeSweep drives Trmm through every geometry around the register
// tile — m and n in 1…17, which crosses every partial tile, partial sliver
// and the thin-vector Trmv cutover — plus sizes crossing the MC and KC
// cache blocks, for every side/uplo/trans/diag case and α ∈ {0, 1, −1, 0.7}:
// on the installed microkernel and on the portable 4×4 kernel, each once
// with the installed cache blocks and once with blocks smaller than the
// triangle, whose depth blocks then start off the register-tile grid.
func TestTrmmEdgeSweep(t *testing.T) {
	for _, cfg := range []struct {
		name string
		b    Blocking
	}{
		{"installed", GemmBlocking()},
		{"portable", Blocking{MR: 4}},
		{"installed-small-blocks", Blocking{MR: GemmBlocking().MR, MC: 16, KC: 13, NC: 12}},
		{"portable-small-blocks", Blocking{MR: 4, MC: 16, KC: 13, NC: 12}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			old := GemmBlocking()
			SetGemmBlocking(cfg.b)
			t.Cleanup(func() { SetGemmBlocking(old) })
			rng := rand.New(rand.NewSource(53))
			alphas := []float64{0, 1, -1, 0.7}
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Upper, Lower} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							for m := 1; m <= 17; m++ {
								for n := 1; n <= 17; n++ {
									for _, alpha := range alphas {
										checkTrmm(t, rng, side, uplo, trans, diag, m, n, alpha)
									}
								}
							}
							for _, d := range [][2]int{{300, 40}, {40, 300}, {257, 9}, {9, 257}} {
								checkTrmm(t, rng, side, uplo, trans, diag, d[0], d[1], 0.7)
							}
						}
					}
				}
			}
		})
	}
}

// TestLevel3EdgeSweepFloat32 runs the edge sweeps of Gemm, Syrk, Trsm and
// Trmm in float32 against the reference loops on the installed kernel, the
// 16×4 AVX2+FMA one where the CPU has it. Rows of C, and the vectors of
// Trsm and Trmm, run to two register tiles and one; the other dimensions
// to sweepLimits' cols; so every partial tile and the thin-operand
// cutovers are crossed. It runs once under the installed blocking, with
// sizes crossing its cache blocks too, and once under cache blocks one
// tile tall, which the sweeps span several of in every dimension.
func TestLevel3EdgeSweepFloat32(t *testing.T) {
	for _, cfg := range []struct {
		name string
		b    Blocking
	}{
		{"installed", GemmBlocking()},
		{"small-blocks", Blocking{MR: GemmBlocking().MR, MC: 16, KC: 13, NC: 12}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			useBlocking(t, cfg.b)
			rows, cols := sweepLimits[float32]()
			gemmEdgeSweep[float32](t, rows, cols)
			rng := rand.New(rand.NewSource(61))
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, trans := range []Transpose{NoTrans, Trans} {
					for n := 1; n <= rows; n++ {
						for k := 1; k <= cols; k++ {
							checkSyrk[float32](t, rng, uplo, trans, n, k, 0.7, 0.5)
						}
					}
					for _, side := range []Side{Left, Right} {
						for _, diag := range []Diag{NonUnit, Unit} {
							// nv vectors against an na×na triangle.
							for nv := 1; nv <= rows; nv++ {
								for na := 1; na <= cols; na++ {
									m, n := na, nv
									if side == Right {
										m, n = nv, na
									}
									checkTrsm[float32](t, rng, side, uplo, trans, diag, m, n, 0.7)
									checkTrmm[float32](t, rng, side, uplo, trans, diag, m, n, 0.7)
								}
							}
							if cfg.name == "installed" && !raceEnabled {
								for _, d := range [][2]int{{257, 40}, {40, 257}} {
									checkTrsm[float32](t, rng, side, uplo, trans, diag, d[0], d[1], 1)
									checkTrmm[float32](t, rng, side, uplo, trans, diag, d[0], d[1], 1)
								}
							}
						}
					}
					if cfg.name == "installed" && !raceEnabled {
						checkSyrk[float32](t, rng, uplo, trans, 300, 257, -1, 1)
					}
				}
			}
		})
	}
}

// seedNonFinite overwrites a few active entries of an m×n/ld matrix with
// NaN and ±Inf.
func seedNonFinite[T Float](rng *rand.Rand, s []T, m, n, ld int) {
	if m == 0 || n == 0 {
		return
	}
	specials := []T{T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1))}
	for i := 0; i < 1+rng.Intn(3); i++ {
		s[rng.Intn(m)+rng.Intn(n)*ld] = specials[rng.Intn(3)]
	}
}

// sameValueClass compares element-wise with non-finite awareness: NaN must
// match NaN, infinities must match exactly (including sign), finite values
// within tolerance.
func sameValueClass(got, want, tol float64) bool {
	switch {
	case math.IsNaN(want):
		return math.IsNaN(got)
	case math.IsInf(want, 0):
		return got == want
	default:
		return !math.IsNaN(got) && !math.IsInf(got, 0) && math.Abs(got-want) <= tol
	}
}

// TestGemmNonFinitePropagation pins the propagation semantics documented on
// Gemm: NaN and ±Inf seeded into referenced operands must reach C exactly
// as the reference loops produce them — in particular the kernels must not
// skip zero coefficients inside the product — while β == 0 and α == 0 must
// keep unreferenced NaNs out. Both kernel paths are checked.
func TestGemmNonFinitePropagation(t *testing.T) {
	for _, packed := range []bool{true, false} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			forcePath(t, packed)
			transes := []Transpose{NoTrans, Trans}
			rng := rand.New(rand.NewSource(37))
			for iter := 0; iter < 300; iter++ {
				transA := transes[rng.Intn(2)]
				transB := transes[rng.Intn(2)]
				m, n, k := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
				ar, ac := m, k
				if transA == Trans {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB == Trans {
					br, bc = n, k
				}
				lda, ldb, ldc := ar+1, br+1, m+1
				a := randPadded(rng, ar, ac, lda)
				b := randPadded(rng, br, bc, ldb)
				c := randPadded(rng, m, n, ldc)
				// Sprinkle exact zeros so zero-coefficient shortcuts would
				// be caught dropping 0·NaN terms.
				for i := 0; i < 4; i++ {
					a[rng.Intn(ar)+rng.Intn(ac)*lda] = 0
					b[rng.Intn(br)+rng.Intn(bc)*ldb] = 0
				}
				seedNonFinite(rng, a, ar, ac, lda)
				seedNonFinite(rng, b, br, bc, ldb)
				seedNonFinite(rng, c, m, n, ldc)
				alpha, beta := pickScalar(rng), pickScalar(rng)

				got := append([]float64(nil), c...)
				want := append([]float64(nil), c...)
				Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
				RefGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
				// Active entries are O(1); an out-of-bounds read of the
				// 1e30 padding sentinel blows this tolerance immediately.
				tol := 1e-9 * float64(k+1)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						g, w := got[i+j*ldc], want[i+j*ldc]
						if !sameValueClass(g, w, tol) {
							t.Fatalf("iter %d transA=%v transB=%v m=%d n=%d k=%d α=%g β=%g: C(%d,%d) = %g, ref %g",
								iter, transA, transB, m, n, k, alpha, beta, i, j, g, w)
						}
					}
				}
			}
		})
	}
}

// TestGemmConcurrentPool hammers the shared pack-buffer pool from many
// goroutines (meaningful under -race) and checks every result.
func TestGemmConcurrentPool(t *testing.T) {
	forcePath(t, true)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 20; iter++ {
				m, n, k := 1+rng.Intn(60), 1+rng.Intn(60), 1+rng.Intn(60)
				a := randPadded(rng, m, k, m)
				b := randPadded(rng, k, n, k)
				got := randPadded(rng, m, n, m)
				want := append([]float64(nil), got...)
				Gemm(NoTrans, NoTrans, m, n, k, 1.5, a, m, b, k, 0.5, got, m)
				RefGemm(NoTrans, NoTrans, m, n, k, 1.5, a, m, b, k, 0.5, want, m)
				if d := maxAbsDiff(got, want); d > 1e-10*float64(k+1) {
					errs <- fmt.Errorf("worker %d iter %d m=%d n=%d k=%d: max diff %g", seed, iter, m, n, k, d)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLevel3ZeroAllocSteadyState asserts that, once the pack pool is warm,
// the pooled level-3 routines allocate nothing per call, in float64 and
// (the rows suffixed 32) float32: the packed Gemm, the axpy TT path (pooled
// row scratch), the packed Syrk, Trmm
// and Trsm sweeps, the thin paths of Trmm and Trsm (Trmv and Trsv on
// strided rows, pooled gather), and the one-column products and solve a
// tile's correction sweep runs (Gemm with n = 1, NN and TN, and a unit-
// stride Trsv), which take the dot and axpy kernels in float32.
func TestLevel3ZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally bypasses caching under the race detector")
	}
	for _, tc := range append(level3AllocCases[float64](""), level3AllocCases[float32]("32")...) {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the pool
			if avg := testing.AllocsPerRun(10, tc.run); avg != 0 {
				t.Errorf("%s allocates %.1f objects per call in steady state", tc.name, avg)
			}
		})
	}
}

// level3AllocCases are TestLevel3ZeroAllocSteadyState's calls in T, each
// name ending in suffix.
func level3AllocCases[T Float](suffix string) []struct {
	name string
	run  func()
} {
	const n = 48
	rng := rand.New(rand.NewSource(41))
	a := randOf[T](rng, n, n, n)
	b := randOf[T](rng, n, n, n)
	c := randOf[T](rng, n, n, n)
	// Repeated in-place solves shrink B by the dominant diagonal, never
	// overflow it.
	tri := randOf[T](rng, n, n, n)
	conditionedTriangle(tri, n, n)
	cases := []struct {
		name string
		run  func()
	}{
		{"GemmPacked", func() {
			Gemm(NoTrans, NoTrans, n, n, n, 1.1, a, n, b, n, 0.9, c, n)
		}},
		{"GemmAxpyTT", func() {
			GemmAxpy(Trans, Trans, n, n, n, 1.1, a, n, b, n, 0.9, c, n)
		}},
		{"TrmmRight", func() {
			Trmm(Right, Upper, NoTrans, NonUnit, 24, 24, 1.1, a, n, c, n)
		}},
		{"TrmmLeft", func() {
			Trmm(Left, Upper, NoTrans, NonUnit, n, n, 1.1, a, n, c, n)
		}},
		{"TrmmLeftTrans", func() {
			Trmm(Left, Lower, Trans, Unit, n, n, 1.1, a, n, c, n)
		}},
		{"TrmmRightThin", func() {
			Trmm(Right, Lower, Trans, NonUnit, 2, n, 1.1, a, n, c, n)
		}},
		{"Syrk", func() {
			Syrk(Lower, NoTrans, n, n, 1.1, a, n, 0.9, c, n)
		}},
		{"TrsmLeft", func() {
			Trsm(Left, Upper, Trans, NonUnit, n, n, 1, tri, n, b, n)
		}},
		{"TrsmRight", func() {
			Trsm(Right, Lower, Trans, NonUnit, n, n, 1, tri, n, b, n)
		}},
		{"TrsmRightThin", func() {
			Trsm(Right, Lower, NoTrans, NonUnit, 2, n, 1, tri, n, b, n)
		}},
		{"GemmOneColumnNN", func() {
			Gemm(NoTrans, NoTrans, n, 1, n, -1, a, n, b, n, 1, c, n)
		}},
		{"GemmOneColumnTN", func() {
			Gemm(Trans, NoTrans, n, 1, n, -1, a, n, b, n, 1, c, n)
		}},
		{"Trsv", func() {
			Trsv(Lower, Trans, NonUnit, n, tri, n, b, 1)
		}},
	}
	for i := range cases {
		cases[i].name += suffix
	}
	return cases
}

// TestGemmMetricsAccounting pins the flop-accounting contract: the product
// counter records exactly the product work performed (2mnk, zero on
// early-outs) and β-scaling lands only on the dedicated scale counter.
func TestGemmMetricsAccounting(t *testing.T) {
	reg := metrics.Enable()
	t.Cleanup(func() {
		metrics.Disable()
		metrics.Reset()
	})
	product := reg.Counter("blas.gemm.flops")
	scale := reg.Counter("blas.gemm.scale_flops")

	const m, n, k = 7, 5, 9
	rng := rand.New(rand.NewSource(43))
	a := randPadded(rng, m, k, m)
	b := randPadded(rng, k, n, k)
	c := randPadded(rng, m, n, m)

	check := func(name string, alpha, beta float64, kk int, wantProduct, wantScale int64) {
		t.Helper()
		metrics.Reset()
		Gemm(NoTrans, NoTrans, m, n, kk, alpha, a, m, b, k, beta, c, m)
		if got := product.Load(); got != wantProduct {
			t.Errorf("%s: product flops = %d, want %d", name, got, wantProduct)
		}
		if got := scale.Load(); got != wantScale {
			t.Errorf("%s: scale flops = %d, want %d", name, got, wantScale)
		}
	}

	check("no-op α=0 β=1", 0, 1, k, 0, 0)
	check("β-only", 0, 2.5, k, 0, m*n)
	check("β-zero k=0", 1, 0, 0, 0, m*n)
	check("product β=1", 1.5, 1, k, 2*m*n*k, 0)
	check("product with β", 1.5, 0.5, k, 2*m*n*k, m*n)
}
