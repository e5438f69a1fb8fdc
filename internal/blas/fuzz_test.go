package blas

import (
	"math/rand"
	"testing"
)

// FuzzGemmDiff differentially fuzzes both Gemm kernel paths (packed and
// axpy) against the reference loops, including non-finite operand entries.
// The "packed" arm disables only the volume cutover, so products thinner
// than the register tile still take the axpy kernels there.
// Matrix data is derived from the fuzzed seed rather than taken raw so the
// finite entries stay O(1) and accumulation-order differences cannot
// overflow; NaN/±Inf coverage comes from deterministic seeding, where the
// value class is order-independent and compared exactly.
func FuzzGemmDiff(f *testing.F) {
	addGemmDiffSeeds(f)
	f.Fuzz(fuzzGemmDiff[float64])
}

// FuzzGemmDiff32 is FuzzGemmDiff in float32, whose packed path runs the
// 16×4 kernel where the CPU has it, against the float32 reference loops.
func FuzzGemmDiff32(f *testing.F) {
	addGemmDiffSeeds(f)
	f.Fuzz(fuzzGemmDiff[float32])
}

func addGemmDiffSeeds(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(8), uint8(0))
	f.Add(int64(2), uint8(17), uint8(9), uint8(13), uint8(3))
	f.Add(int64(3), uint8(1), uint8(31), uint8(2), uint8(0xff))
	f.Add(int64(4), uint8(24), uint8(24), uint8(24), uint8(0x5a))
	// Thin products (n < NR): a tile times one to three right-hand sides.
	f.Add(int64(5), uint8(32), uint8(1), uint8(32), uint8(0))
	f.Add(int64(6), uint8(32), uint8(1), uint8(32), uint8(1))
	f.Add(int64(7), uint8(29), uint8(3), uint8(30), uint8(0x16))
	// Odd depth (the kernels' unrolling tail) across two row tiles of
	// either wide kernel, α = −1, β = 0.
	f.Add(int64(8), uint8(31), uint8(7), uint8(17), uint8(0x08))
	// One and two columns through every transpose the dot and axpy
	// kernels take (TN, NT), at depths and heights across their tails.
	f.Add(int64(9), uint8(32), uint8(2), uint8(31), uint8(0x05))
	f.Add(int64(10), uint8(27), uint8(1), uint8(19), uint8(0x06))
	f.Add(int64(11), uint8(9), uint8(2), uint8(32), uint8(0x01))
}

// fuzzGemmDiff is one FuzzGemmDiff case in T.
func fuzzGemmDiff[T Float](t *testing.T, seed int64, m8, n8, k8, flags uint8) {
	m, n, k := int(m8%33), int(n8%33), int(k8%33)
	transA, transB := NoTrans, NoTrans
	if flags&1 != 0 {
		transA = Trans
	}
	if flags&2 != 0 {
		transB = Trans
	}
	rng := rand.New(rand.NewSource(seed))
	scalars := []float64{0, 1, -1, 0.5, rng.NormFloat64()}
	alpha := T(scalars[int(flags>>2)%len(scalars)])
	beta := T(scalars[int(flags>>5)%len(scalars)])

	ar, ac := m, k
	if transA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB == Trans {
		br, bc = n, k
	}
	lda := max(1, ar) + rng.Intn(3)
	ldb := max(1, br) + rng.Intn(3)
	ldc := max(1, m) + rng.Intn(3)
	a := randOf[T](rng, ar, ac, lda)
	b := randOf[T](rng, br, bc, ldb)
	c := randOf[T](rng, m, n, ldc)
	if flags&4 != 0 {
		seedNonFinite(rng, a, ar, ac, lda)
		seedNonFinite(rng, b, br, bc, ldb)
		seedNonFinite(rng, c, m, n, ldc)
	}

	want := append([]T(nil), c...)
	RefGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)

	check := func(name string, got []T) {
		t.Helper()
		checkPadding(t, name+" C", m, n, ldc, got)
		// Active entries are O(1), so any out-of-bounds read of the
		// 1e30 padding sentinel blows this tolerance immediately.
		tol := tolFor[T](1e-9, 1e-5) * float64(k+1)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				g, w := got[i+j*ldc], want[i+j*ldc]
				if !sameValueClass(float64(g), float64(w), tol) {
					t.Fatalf("%s: transA=%v transB=%v m=%d n=%d k=%d α=%g β=%g: C(%d,%d) = %g, ref %g",
						name, transA, transB, m, n, k, alpha, beta, i, j, g, w)
				}
			}
		}
	}

	packed := append([]T(nil), c...)
	old := minPackedVolume
	minPackedVolume = 0
	Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, packed, ldc)
	minPackedVolume = old
	check("packed", packed)

	axpy := append([]T(nil), c...)
	GemmAxpy(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, axpy, ldc)
	check("axpy", axpy)
}

// FuzzGemmPrepackedDiff differentially fuzzes GemmPrepacked against Gemm,
// bit for bit: the product is run twice with fresh shared packs (the first
// run packs them, the second reads them) and must equal Gemm under the
// blocking in force each time. flags: bits 0–1 the transposes, bits 2–3
// the operands read from a pack (A, B or both), bit 4 a small blocking the
// operands outgrow, bit 5 the other blocking for the second run, bit 6 the
// default volume cutover, under which a product on the axpy kernels must
// leave its packs empty.
func FuzzGemmPrepackedDiff(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(8), uint8(0x0c))
	f.Add(int64(2), uint8(17), uint8(9), uint8(13), uint8(0x1d))
	f.Add(int64(3), uint8(23), uint8(14), uint8(29), uint8(0x3e))
	f.Add(int64(4), uint8(30), uint8(2), uint8(30), uint8(0x4c))
	f.Add(int64(5), uint8(5), uint8(5), uint8(5), uint8(0x4f))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, k8, flags uint8) {
		m, n, k := 1+int(m8%40), 1+int(n8%40), 1+int(k8%40)
		transA, transB := NoTrans, NoTrans
		if flags&1 != 0 {
			transA = Trans
		}
		if flags&2 != 0 {
			transB = Trans
		}
		blk := []Blocking{DefaultBlocking(), smallBlocking}
		if flags&16 != 0 {
			blk[0], blk[1] = blk[1], blk[0]
		}
		old, oldVolume := GemmBlocking(), minPackedVolume
		defer func() { SetGemmBlocking(old); minPackedVolume = oldVolume }()
		if flags&64 == 0 {
			minPackedVolume = 0
		}
		g := newGemmCase[float64](rand.New(rand.NewSource(seed)), transA, transB, m, n, k)
		var pa, pb *Packed[float64]
		if flags&4 != 0 || flags&12 == 0 {
			pa = new(Packed[float64])
		}
		if flags&8 != 0 || flags&12 == 0 {
			pb = new(Packed[float64])
		}
		for run := range 2 {
			SetGemmBlocking(blk[0])
			if run == 1 && flags&32 != 0 {
				SetGemmBlocking(blk[1])
			}
			if i := sameBits(g.run(pa, pb), g.run(nil, nil)); i >= 0 {
				t.Fatalf("run %d %v%v m=%d n=%d k=%d flags %#x: differs from Gemm at %d", run, transA, transB, m, n, k, flags, i)
			}
		}
		axpy := n < GemmBlocking().NR || int64(m*n*k) < minPackedVolume
		if axpy && (pa != nil && pa.ready || pb != nil && pb.ready) {
			t.Fatalf("m=%d n=%d k=%d: an axpy-path product packed a shared operand", m, n, k)
		}
	})
}

// fuzzAlphas are the α values the Syrk/Trsm/Trmm fuzzers pick from: the early-out
// gates 0 and 1, a sign flip, and a generic value.
var fuzzAlphas = []float64{0, 1, -1, 0.7}

// FuzzSyrkDiff differentially fuzzes the packed Syrk sweep against RefSyrk
// on finite data, on either microkernel. flags: bit 0 uplo, bit 1 trans,
// bits 2–3 α, bit 4 β = 0 (else 0.5), bit 5 the portable 4×4 kernel.
func FuzzSyrkDiff(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0))
	f.Add(int64(2), uint8(17), uint8(5), uint8(0x0f))
	f.Add(int64(3), uint8(1), uint8(39), uint8(0x22))
	f.Add(int64(4), uint8(37), uint8(1), uint8(0x3d))
	f.Fuzz(func(t *testing.T, seed int64, n8, k8, flags uint8) {
		n, k := int(n8%40), int(k8%40)
		uplo, trans := Upper, NoTrans
		if flags&1 != 0 {
			uplo = Lower
		}
		if flags&2 != 0 {
			trans = Trans
		}
		alpha, beta := fuzzAlphas[flags>>2&3], 0.5
		if flags&16 != 0 {
			beta = 0
		}
		if flags&32 != 0 {
			forcePortableKernel(t)
		}
		checkSyrk(t, rand.New(rand.NewSource(seed)), uplo, trans, n, k, alpha, beta)
	})
}

// FuzzTrsmDiff differentially fuzzes Trsm — the packed sweep and the
// thin-RHS Trsv path — against RefTrsm on finite data with a conditioned
// triangle, on either microkernel. flags: bit 0 side, bit 1 uplo, bit 2
// trans, bit 3 diag, bits 4–5 α, bit 6 the portable 4×4 kernel.
func FuzzTrsmDiff(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0))
	f.Add(int64(2), uint8(17), uint8(3), uint8(0x0f))
	f.Add(int64(3), uint8(2), uint8(39), uint8(0x35))
	f.Add(int64(4), uint8(33), uint8(21), uint8(0x6a))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, flags uint8) {
		m, n := 1+int(m8%40), 1+int(n8%40)
		side, uplo, trans, diag := Left, Upper, NoTrans, NonUnit
		if flags&1 != 0 {
			side = Right
		}
		if flags&2 != 0 {
			uplo = Lower
		}
		if flags&4 != 0 {
			trans = Trans
		}
		if flags&8 != 0 {
			diag = Unit
		}
		if flags&64 != 0 {
			forcePortableKernel(t)
		}
		checkTrsm(t, rand.New(rand.NewSource(seed)), side, uplo, trans, diag, m, n, fuzzAlphas[flags>>4&3])
	})
}

// FuzzTrmmDiff differentially fuzzes Trmm — the packed sweep and the
// thin-vector Trmv path — against RefTrmm on finite data, on either
// microkernel, with the unreferenced triangle poisoned. flags: bit 0 side,
// bit 1 uplo, bit 2 trans, bit 3 diag, bits 4–5 α, bit 6 the portable 4×4
// kernel.
func FuzzTrmmDiff(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0))
	f.Add(int64(2), uint8(17), uint8(3), uint8(0x0f))
	f.Add(int64(3), uint8(2), uint8(39), uint8(0x35))
	f.Add(int64(4), uint8(33), uint8(21), uint8(0x6a))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, flags uint8) {
		m, n := 1+int(m8%40), 1+int(n8%40)
		side, uplo, trans, diag := Left, Upper, NoTrans, NonUnit
		if flags&1 != 0 {
			side = Right
		}
		if flags&2 != 0 {
			uplo = Lower
		}
		if flags&4 != 0 {
			trans = Trans
		}
		if flags&8 != 0 {
			diag = Unit
		}
		if flags&64 != 0 {
			forcePortableKernel(t)
		}
		checkTrmm(t, rand.New(rand.NewSource(seed)), side, uplo, trans, diag, m, n, fuzzAlphas[flags>>4&3])
	})
}
