package blas

import (
	"sync"
	"unsafe"
)

// Pack-buffer pool. Every level-3 scratch need in this package draws from
// one sync.Pool per element type:
//   - the packed op(A) and op(B) blocks of Gemm, Syrk and Trmm;
//   - the packed triangles of Trsm and Trmm, Trsm's solved vectors and
//     Trmm's product;
//   - the strided gathers of Trsv and Trmv, Gemm's TT row and the edge tile
//     of every microkernel sweep.
//
// The tile kernels above this package draw from it too, so
// scheduler-parallel tile kernels reach steady state with zero allocations
// per call. The pool stores *[]float64 / *[]float32 and the generic accessor
// recovers the []T view with an allocation-free type assertion (exact
// float32/float64 instantiations only; named Float types fall back to plain
// make, which is correct but unpooled).
//
// The shared packs (Packed) have a pool of their own: they are all of one
// operand size and live across tasks, and mixed into the scratch pool they
// would leave a large request, such as an LU panel's, mostly small buffers
// to draw.
var scratchPool, packedPool = newBufPool(), newBufPool()

// A bufPool is one sync.Pool per pooled element type.
type bufPool struct{ p64, p32 sync.Pool }

func newBufPool() *bufPool {
	return &bufPool{
		p64: sync.Pool{New: func() any { return new([]float64) }},
		p32: sync.Pool{New: func() any { return new([]float32) }},
	}
}

// Scratch is a pooled slice handle. Obtain with GetScratch, return with
// Release. The contents of Buf are unspecified on acquisition.
type Scratch[T Float] struct {
	Buf  []T
	pool *bufPool
	p64  *[]float64
	p32  *[]float32
}

// GetScratch returns a length-n scratch buffer, pooled when T is exactly
// float32 or float64.
func GetScratch[T Float](n int) Scratch[T] {
	return getBuf[T](scratchPool, n)
}

// getBuf returns a length-n buffer from bp.
func getBuf[T Float](bp *bufPool, n int) Scratch[T] {
	s := Scratch[T]{pool: bp}
	var z T
	switch any(z).(type) {
	case float64:
		p := bp.p64.Get().(*[]float64)
		if cap(*p) < n {
			*p = make([]float64, n)
		}
		s.p64 = p
		s.Buf = any((*p)[:n]).([]T)
	case float32:
		p := bp.p32.Get().(*[]float32)
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
		s.pool.p64.Put(s.p64)
	} else if s.p32 != nil {
		s.pool.p32.Put(s.p32)
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
			base := l0 + (i0+s*mr)*lda
			if rows == mr && gatherChunks(kb, mr, a, base, lda, sl) {
				continue
			}
			for i := 0; i < rows; i++ {
				src := a[base+i*lda:]
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
			base := l0 + (j0+s*nr)*ldb
			if cols == nr && gatherChunks(kb, nr, b, base, ldb, sl) {
				continue
			}
			for j := 0; j < cols; j++ {
				src := b[base+j*ldb:]
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

// gatherChunks is the transposing twin of copyChunks: it interleaves the w
// contiguous runs of kb elements starting at src[off + c·ld], c < w, into
// kb consecutive w-element chunks of dst (dst[l·w + c] = src[off + c·ld +
// l]), one chunk per pass with the w stores unrolled, instead of w strided
// passes. Other widths report false and copy nothing.
func gatherChunks[T Float](kb, w int, src []T, off, ld int, dst []T) bool {
	switch w {
	case 4:
		c0 := src[off : off+kb]
		c1 := src[off+ld:][:len(c0)]
		c2 := src[off+2*ld:][:len(c0)]
		c3 := src[off+3*ld:][:len(c0)]
		for l := range c0 {
			d := dst[l*4 : l*4+4 : l*4+4]
			d[0], d[1], d[2], d[3] = c0[l], c1[l], c2[l], c3[l]
		}
	case 8:
		c0 := src[off : off+kb]
		c1 := src[off+ld:][:len(c0)]
		c2 := src[off+2*ld:][:len(c0)]
		c3 := src[off+3*ld:][:len(c0)]
		c4 := src[off+4*ld:][:len(c0)]
		c5 := src[off+5*ld:][:len(c0)]
		c6 := src[off+6*ld:][:len(c0)]
		c7 := src[off+7*ld:][:len(c0)]
		for l := range c0 {
			d := dst[l*8 : l*8+8 : l*8+8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0[l], c1[l], c2[l], c3[l], c4[l], c5[l], c6[l], c7[l]
		}
	default:
		return false
	}
	return true
}

// Packed is one GEMM operand in packed form, shared by every product that
// reads it: the first product to take the packed path packs it, and the
// rest read that copy instead of packing again. As an A operand it holds
// op(A), m×k, in mr-row slivers; as a B operand op(B), k×n, in nr-column
// slivers — each cache block laid out as packA or packB lay it out, so a
// product sees byte for byte what it would have packed itself. The blocks
// follow gemmPacked's loop order:
//
//	A block (pc, ic) at pc·roundUp(m, mr) + ic·kb
//	B block (jc, pc) at jc·k + pc·roundUp(nb, nr), nb = min(nc, n−jc)
//
// so operands larger than one cache block work too. A Packed records the
// blocking it was packed under; a product running under another one packs
// for itself. The zero value is empty and ready for use; Release returns
// the storage to the pool and empties it again. A Packed is safe for
// concurrent use by products that read the same operand.
type Packed[T Float] struct {
	mu sync.Mutex
	// ready is set only once the pack is complete, so a product that
	// panics mid-pack leaves it empty for the next one.
	ready      bool
	asB        bool
	trans      Transpose
	rows, cols int // of op(X)
	blk        Blocking
	buf        Scratch[T]
}

// operand returns p's packed form of op(X) (rows×cols) for a product under
// blocking blk, as the A operand or, with asB, the B operand, packing it
// first if no product has yet. It returns the number of elements it packed
// and nil if p is nil or holds a pack made under another blocking. Reading
// the same Packed with another operand's shape or role is a programming
// error and panics.
func (p *Packed[T]) operand(blk Blocking, asB bool, trans Transpose, x []T, ldx, rows, cols int) (buf []T, packed int) {
	if p == nil {
		return nil, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ready {
		packed = p.pack(blk, asB, trans, x, ldx, rows, cols)
		p.ready = true
	}
	if p.asB != asB || p.trans != trans || p.rows != rows || p.cols != cols {
		panic("blas: packed operand read as another operand")
	}
	if p.blk != blk {
		return nil, packed
	}
	return p.buf.Buf, packed
}

// pack fills p with op(X) under blocking blk and records how it was
// packed, returning the number of elements written.
func (p *Packed[T]) pack(blk Blocking, asB bool, trans Transpose, x []T, ldx, rows, cols int) int {
	mr, nr := registerTile[T](blk)
	var size int
	if asB {
		size = rows * roundUp(cols, nr)
	} else {
		size = roundUp(rows, mr) * cols
	}
	p.buf.Release()
	p.buf = getBuf[T](packedPool, size)
	p.asB, p.trans, p.rows, p.cols, p.blk = asB, trans, rows, cols, blk
	if asB {
		// op(B) is k×n: depth blocks inside column blocks.
		k, n := rows, cols
		for jc := 0; jc < n; jc += blk.NC {
			nb := min(blk.NC, n-jc)
			for pc := 0; pc < k; pc += blk.KC {
				packB(trans, min(blk.KC, k-pc), nb, x, ldx, pc, jc, nr, p.buf.Buf[jc*k+pc*roundUp(nb, nr):])
			}
		}
		return size
	}
	// op(A) is m×k: one pack of all m rows per depth block holds its row
	// blocks (pc, ic) back to back, mc being a multiple of mr.
	m, k := rows, cols
	for pc := 0; pc < k; pc += blk.KC {
		packA(trans, m, min(blk.KC, k-pc), x, ldx, 0, pc, mr, p.buf.Buf[pc*roundUp(m, mr):])
	}
	return size
}

// Release returns p's pack to the pool and empties p. It must not run
// while a product is reading p.
func (p *Packed[T]) Release() {
	p.mu.Lock()
	p.buf.Release()
	p.buf, p.ready = Scratch[T]{}, false
	p.mu.Unlock()
}

// sizeOf is the size of one T in bytes.
func sizeOf[T Float]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}
