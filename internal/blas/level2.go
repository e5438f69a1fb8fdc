package blas

// Gemv computes the matrix-vector product
//
//	y ← α·op(A)·x + β·y, op(A) = A or Aᵀ,
//
// where A is an m×n column-major matrix.
func Gemv[T Float](trans Transpose, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	checkTrans(trans)
	checkMatrix("A", m, n, a, lda)
	lenX, lenY := n, m
	if trans == Trans {
		lenX, lenY = m, n
	}
	checkVector("x", lenX, x, incX)
	checkVector("y", lenY, y, incY)
	if lenY == 0 {
		return
	}

	// y ← β·y.
	if beta != 1 {
		if beta == 0 {
			iy := vstart(lenY, incY)
			for i := 0; i < lenY; i++ {
				y[iy] = 0
				iy += incY
			}
		} else {
			Scal(lenY, beta, y, incY)
		}
	}
	if alpha == 0 || m == 0 || n == 0 {
		return
	}
	if a32, ok := any(a).([]float32); ok && incX == 1 && incY == 1 && vecKernels() {
		gemvVec32(trans, m, n, float32(alpha), a32, lda, any(x).([]float32), any(y).([]float32))
		return
	}

	if trans == NoTrans {
		// y ← y + α Σ_j x[j]·A[:,j]; columns are contiguous.
		ix := vstart(lenX, incX)
		for j := 0; j < n; j++ {
			xv := alpha * x[ix]
			ix += incX
			if xv == 0 {
				continue
			}
			col := a[j*lda : j*lda+m]
			if incY == 1 {
				for i, av := range col {
					y[i] += xv * av
				}
			} else {
				iy := vstart(lenY, incY)
				for _, av := range col {
					y[iy] += xv * av
					iy += incY
				}
			}
		}
		return
	}
	// Transposed: y[j] += α·A[:,j]ᵀx.
	iy := vstart(lenY, incY)
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		var s T
		if incX == 1 {
			for i, av := range col {
				s += av * x[i]
			}
		} else {
			ix := vstart(lenX, incX)
			for _, av := range col {
				s += av * x[ix]
				ix += incX
			}
		}
		y[iy] += alpha * s
		iy += incY
	}
}

// Ger computes the rank-one update A ← α·x·yᵀ + A for an m×n matrix A.
func Ger[T Float](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	checkMatrix("A", m, n, a, lda)
	checkVector("x", m, x, incX)
	checkVector("y", n, y, incY)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	iy := vstart(n, incY)
	for j := 0; j < n; j++ {
		yv := alpha * y[iy]
		iy += incY
		if yv == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		if incX == 1 {
			for i, xv := range x[:m] {
				col[i] += xv * yv
			}
		} else {
			ix := vstart(m, incX)
			for i := 0; i < m; i++ {
				col[i] += x[ix] * yv
				ix += incX
			}
		}
	}
}

// Symv computes y ← α·A·x + β·y where A is an n×n symmetric matrix of which
// only the uplo triangle is referenced.
func Symv[T Float](uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	checkUplo(uplo)
	checkMatrix("A", n, n, a, lda)
	checkVector("x", n, x, incX)
	checkVector("y", n, y, incY)
	if n == 0 {
		return
	}
	if beta != 1 {
		if beta == 0 {
			iy := vstart(n, incY)
			for i := 0; i < n; i++ {
				y[iy] = 0
				iy += incY
			}
		} else {
			Scal(n, beta, y, incY)
		}
	}
	if alpha == 0 {
		return
	}
	if incX != 1 || incY != 1 {
		// Strided vectors run on pooled unit-stride copies.
		xs, ys := GetScratch[T](n), GetScratch[T](n)
		Copy(n, x, incX, xs.Buf, 1)
		Copy(n, y, incY, ys.Buf, 1)
		Symv(uplo, n, alpha, a, lda, xs.Buf, 1, 1, ys.Buf, 1)
		Copy(n, ys.Buf, 1, y, incY)
		xs.Release()
		ys.Release()
		return
	}
	// Each column j does one axpy into the rest of y and one dot into y[j]
	// off the stored triangle, reference DSYMV's order. Products are formed
	// as (α·aᵢⱼ)·xⱼ.
	x, y = x[:n], y[:n]
	for j, xj := range x {
		col := a[j*lda : j*lda+n]
		// The off-diagonal part of column j and the entries of x and y it
		// pairs with.
		cs, xs, ys := col[j+1:], x[j+1:], y[j+1:]
		if uplo == Upper {
			cs, xs, ys = col[:j], x[:j], y[:j]
		}
		xs, ys = xs[:len(cs)], ys[:len(cs)]
		yj := y[j] + alpha*col[j]*xj
		for i, v := range cs {
			av := alpha * v
			ys[i] += av * xj
			yj += av * xs[i]
		}
		y[j] = yj
	}
}

// Trmv computes x ← op(A)·x where A is an n×n triangular matrix.
func Trmv[T Float](uplo Uplo, trans Transpose, diag Diag, n int, a []T, lda int, x []T, incX int) {
	checkUplo(uplo)
	checkTrans(trans)
	checkDiag(diag)
	checkMatrix("A", n, n, a, lda)
	checkVector("x", n, x, incX)
	if n == 0 {
		return
	}
	if incX != 1 {
		// Pooled: Trmm multiplies thin row vectors through here.
		tmp := GetScratch[T](n)
		Copy(n, x, incX, tmp.Buf, 1)
		Trmv(uplo, trans, diag, n, a, lda, tmp.Buf, 1)
		Copy(n, tmp.Buf, 1, x, incX)
		tmp.Release()
		return
	}
	unit := diag == Unit
	if trans == NoTrans {
		if uplo == Upper {
			for i := 0; i < n; i++ {
				var s T
				if unit {
					s = x[i]
				} else {
					s = a[i+i*lda] * x[i]
				}
				for j := i + 1; j < n; j++ {
					s += a[i+j*lda] * x[j]
				}
				x[i] = s
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				var s T
				if unit {
					s = x[i]
				} else {
					s = a[i+i*lda] * x[i]
				}
				for j := 0; j < i; j++ {
					s += a[i+j*lda] * x[j]
				}
				x[i] = s
			}
		}
		return
	}
	// Transposed.
	if uplo == Upper {
		for i := n - 1; i >= 0; i-- {
			var s T
			if unit {
				s = x[i]
			} else {
				s = a[i+i*lda] * x[i]
			}
			for j := 0; j < i; j++ {
				s += a[j+i*lda] * x[j]
			}
			x[i] = s
		}
	} else {
		for i := 0; i < n; i++ {
			var s T
			if unit {
				s = x[i]
			} else {
				s = a[i+i*lda] * x[i]
			}
			for j := i + 1; j < n; j++ {
				s += a[j+i*lda] * x[j]
			}
			x[i] = s
		}
	}
}

// Trsv solves op(A)·x = b in place (x overwrites b) where A is an n×n
// triangular matrix.
func Trsv[T Float](uplo Uplo, trans Transpose, diag Diag, n int, a []T, lda int, x []T, incX int) {
	checkUplo(uplo)
	checkTrans(trans)
	checkDiag(diag)
	checkMatrix("A", n, n, a, lda)
	checkVector("x", n, x, incX)
	if n == 0 {
		return
	}
	if incX != 1 {
		// Pooled: Trsm solves thin right-hand sides row by row through here.
		tmp := GetScratch[T](n)
		Copy(n, x, incX, tmp.Buf, 1)
		Trsv(uplo, trans, diag, n, a, lda, tmp.Buf, 1)
		Copy(n, tmp.Buf, 1, x, incX)
		tmp.Release()
		return
	}
	unit := diag == Unit
	if a32, ok := any(a).([]float32); ok && vecKernels() {
		trsvVec32(uplo, trans, unit, n, a32, lda, any(x).([]float32))
		return
	}
	if trans == NoTrans {
		if uplo == Lower {
			// Forward substitution.
			for j := 0; j < n; j++ {
				if !unit {
					x[j] /= a[j+j*lda]
				}
				xj := x[j]
				if xj == 0 {
					continue
				}
				col := a[j*lda:]
				for i := j + 1; i < n; i++ {
					x[i] -= xj * col[i]
				}
			}
		} else {
			// Back substitution.
			for j := n - 1; j >= 0; j-- {
				if !unit {
					x[j] /= a[j+j*lda]
				}
				xj := x[j]
				if xj == 0 {
					continue
				}
				col := a[j*lda:]
				for i := 0; i < j; i++ {
					x[i] -= xj * col[i]
				}
			}
		}
		return
	}
	// op(A) = Aᵀ: traverse rows of Aᵀ as columns of A.
	if uplo == Lower {
		// Aᵀ is upper triangular: back substitution with dot products.
		for i := n - 1; i >= 0; i-- {
			col := a[i*lda:]
			s := x[i]
			for j := i + 1; j < n; j++ {
				s -= col[j] * x[j]
			}
			if !unit {
				s /= col[i]
			}
			x[i] = s
		}
	} else {
		// Aᵀ is lower triangular: forward substitution.
		for i := 0; i < n; i++ {
			col := a[i*lda:]
			s := x[i]
			for j := 0; j < i; j++ {
				s -= col[j] * x[j]
			}
			if !unit {
				s /= col[i]
			}
			x[i] = s
		}
	}
}
