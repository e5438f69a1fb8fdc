package blas

import "sync"

// Pack-buffer pool. Every level-3 scratch need in this package — packed
// op(A)/op(B) panels, the packed triangles of Trsm and Trmm, Trsm's solved
// vectors, Trmm's product, Symm's densified operand, the strided gathers of
// Trsv and Trmv — draws from one sync.Pool per element type, and so do the
// tile kernels above this package, so scheduler-parallel tile kernels
// reach steady state with zero allocations per call. The pool stores
// *[]float64 / *[]float32 and the generic accessor recovers the []T view
// with an allocation-free type assertion (exact float32/float64
// instantiations only; named Float types fall back to plain make, which is
// correct but unpooled).
var (
	packPool64 = sync.Pool{New: func() any { return new([]float64) }}
	packPool32 = sync.Pool{New: func() any { return new([]float32) }}
)

// Scratch is a pooled slice handle. Obtain with GetScratch, return with
// Release. The contents of Buf are unspecified on acquisition.
type Scratch[T Float] struct {
	Buf []T
	p64 *[]float64
	p32 *[]float32
}

// GetScratch returns a length-n scratch buffer, pooled when T is exactly
// float32 or float64.
func GetScratch[T Float](n int) Scratch[T] {
	var s Scratch[T]
	var z T
	switch any(z).(type) {
	case float64:
		p := packPool64.Get().(*[]float64)
		if cap(*p) < n {
			*p = make([]float64, n)
		}
		s.p64 = p
		s.Buf = any((*p)[:n]).([]T)
	case float32:
		p := packPool32.Get().(*[]float32)
		if cap(*p) < n {
			*p = make([]float32, n)
		}
		s.p32 = p
		s.Buf = any((*p)[:n]).([]T)
	default:
		s.Buf = make([]T, n)
	}
	return s
}

// Release returns the buffer to its pool. The scratch must not be used
// afterwards.
func (s Scratch[T]) Release() {
	if s.p64 != nil {
		packPool64.Put(s.p64)
	} else if s.p32 != nil {
		packPool32.Put(s.p32)
	}
}

// packA packs the mb×kb panel of op(A) starting at logical row i0, depth l0
// into dst, normalizing the transpose away: dst holds ceil(mb/mr) slivers
// of mr rows each, sliver s laid out column-major as
//
//	dst[s·kb·mr + l·mr + i] = op(A)[i0+s·mr+i, l0+l]
//
// with rows beyond mb zero-filled, so the microkernel always reads a full
// mr×kb sliver with unit stride and never branches on the row edge.
func packA[T Float](trans Transpose, mb, kb int, a []T, lda, i0, l0, mr int, dst []T) {
	for s := 0; s*mr < mb; s++ {
		rows := min(mr, mb-s*mr)
		sl := dst[s*kb*mr:]
		if trans == NoTrans {
			// op(A)[i,l] = a[(i0+i) + (l0+l)·lda]: copy mr-row column chunks.
			base := i0 + s*mr + l0*lda
			if rows == mr && copyChunks(kb, mr, a, base, lda, sl) {
				continue
			}
			for l := 0; l < kb; l++ {
				src := a[base+l*lda : base+l*lda+rows]
				d := sl[l*mr : l*mr+mr]
				copy(d, src)
				for i := rows; i < mr; i++ {
					d[i] = 0
				}
			}
		} else {
			// op(A)[i,l] = a[(l0+l) + (i0+i)·lda]: gather rows of Aᵀ, i.e.
			// contiguous columns of A, transposing into the sliver.
			for i := 0; i < rows; i++ {
				src := a[l0+(i0+s*mr+i)*lda:]
				for l := 0; l < kb; l++ {
					sl[l*mr+i] = src[l]
				}
			}
			for i := rows; i < mr; i++ {
				for l := 0; l < kb; l++ {
					sl[l*mr+i] = 0
				}
			}
		}
	}
}

// packB packs the kb×nb panel of op(B) starting at depth l0, logical column
// j0 into dst as ceil(nb/nr) slivers of nr columns each, sliver s laid out
// row-major as
//
//	dst[s·kb·nr + l·nr + j] = op(B)[l0+l, j0+s·nr+j]
//
// with columns beyond nb zero-filled.
func packB[T Float](trans Transpose, kb, nb int, b []T, ldb, l0, j0, nr int, dst []T) {
	for s := 0; s*nr < nb; s++ {
		cols := min(nr, nb-s*nr)
		sl := dst[s*kb*nr:]
		if trans == NoTrans {
			// op(B)[l,j] = b[(l0+l) + (j0+j)·ldb]: transpose nr columns of B
			// into row-major sliver order.
			for j := 0; j < cols; j++ {
				src := b[l0+(j0+s*nr+j)*ldb:]
				for l := 0; l < kb; l++ {
					sl[l*nr+j] = src[l]
				}
			}
			for j := cols; j < nr; j++ {
				for l := 0; l < kb; l++ {
					sl[l*nr+j] = 0
				}
			}
		} else {
			// op(B)[l,j] = b[(j0+j) + (l0+l)·ldb]: contiguous nr-column row
			// chunks of B.
			base := j0 + s*nr + l0*ldb
			if cols == nr && copyChunks(kb, nr, b, base, ldb, sl) {
				continue
			}
			for l := 0; l < kb; l++ {
				src := b[base+l*ldb : base+l*ldb+cols]
				d := sl[l*nr : l*nr+nr]
				copy(d, src)
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
		}
	}
}

// copyChunks copies kb chunks of w contiguous elements, chunk l starting at
// src[off + l·ld], into consecutive w-element chunks of dst — a full sliver
// of a 4- or 8-wide register tile — by element assignment: a copy call per
// chunk is mostly call overhead. Other widths report false and copy nothing.
func copyChunks[T Float](kb, w int, src []T, off, ld int, dst []T) bool {
	switch w {
	case 4:
		for l := 0; l < kb; l, off = l+1, off+ld {
			s, d := src[off:off+4:off+4], dst[l*4:l*4+4:l*4+4]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		}
	case 8:
		for l := 0; l < kb; l, off = l+1, off+ld {
			s, d := src[off:off+8:off+8], dst[l*8:l*8+8:l*8+8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		}
	default:
		return false
	}
	return true
}
