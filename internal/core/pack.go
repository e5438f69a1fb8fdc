package core

import (
	"sync/atomic"

	"exadla/internal/blas"
)

// This file holds the pack table of one walk of a factorization program:
// each finalized panel tile is packed once for the GEMM microkernel, per
// form, and every trailing update that reads it shares that copy instead of
// packing the tile again (blas.Packed). Cholesky's gemm(i, j, k) reads
// L(i, k)'s A form and L(j, k)'s B form and syrk(j, k) both forms of
// L(j, k); LU's lgemm(i, j, k) reads L(i, k)'s A form and U(k, j)'s B form.
//
// The scheduler orders every write of a tile before or after all the
// readers of one version of it, so a pack made by the first reader, at its
// own turn, is what each of its readers would have packed. Packing in the
// producer instead would miss a later write before the readers: the
// in-place correction of an ABFT verification. A reader retires its entry
// only once its whole task body has succeeded — a failed or retried
// attempt must find the pack still there — and the last reader returns the
// pack to the pool. Readers that never succeed (a poisoned program, a task
// that ran out of retries) leave their entries to release, which the
// driver calls after the final wait.

// A packForm is one of the packed forms of a tile: as the A operand of a
// product (mr-row slivers) or as the B operand (nr-column slivers).
type packForm uint8

const (
	formA packForm = iota
	formB
)

type packKey struct {
	i, j int
	form packForm
}

// packEntry is one shared pack and the number of its readers yet to
// retire.
type packEntry[F blas.Float] struct {
	p       blas.Packed[F]
	readers atomic.Int32
}

// packsOpen counts the entries of every live pack table not yet released;
// it is zero whenever no factorization is running.
var packsOpen atomic.Int64

// packTable holds the shared packs of one walk. It is built before the
// walk's first task is submitted and only its entries change afterwards.
type packTable[F blas.Float] struct {
	mt int
	// index[slot(key)] is 1 + the position of key's entry in entries, 0
	// for a pack no step reads.
	index   []int32
	entries []packEntry[F]
}

// packReads returns the packed forms step st reads as its A and B
// operands, with ok false for the steps that read none.
func packReads(st Step) (a, b packKey, ok bool) {
	k, i, j := st.K, st.I, st.J
	switch st.Kind {
	case "gemm":
		return packKey{i, k, formA}, packKey{j, k, formB}, true
	case "syrk":
		return packKey{j, k, formA}, packKey{j, k, formB}, true
	case "lgemm":
		return packKey{i, k, formA}, packKey{k, j, formB}, true
	}
	return packKey{}, packKey{}, false
}

// newPackTable counts the readers of every pack the steps of prog, a
// program over an mt×nt tile grid, read.
func newPackTable[F blas.Float](prog []Step, mt, nt int) *packTable[F] {
	t := &packTable[F]{mt: mt, index: make([]int32, 2*mt*nt)}
	for _, st := range prog {
		if a, b, ok := packReads(st); ok {
			t.index[t.slot(a)]++
			t.index[t.slot(b)]++
		}
	}
	n := 0
	for _, readers := range t.index {
		if readers > 0 {
			n++
		}
	}
	t.entries = make([]packEntry[F], n)
	e := int32(0)
	for s, readers := range t.index {
		if readers > 0 {
			t.entries[e].readers.Store(readers)
			e++
			t.index[s] = e
		}
	}
	packsOpen.Add(int64(n))
	return t
}

func (t *packTable[F]) slot(key packKey) int { return 2*(key.i+key.j*t.mt) + int(key.form) }

// operands returns the entries st reads as its A and B operands, nil for a
// step that reads none.
func (t *packTable[F]) operands(st Step) (a, b *packEntry[F]) {
	ka, kb, ok := packReads(st)
	if !ok {
		return nil, nil
	}
	return &t.entries[t.index[t.slot(ka)]-1], &t.entries[t.index[t.slot(kb)]-1]
}

// packed is e's pack, nil for a nil entry.
func (e *packEntry[F]) packed() *blas.Packed[F] {
	if e == nil {
		return nil
	}
	return &e.p
}

// retire retires one reader of e, whose task has succeeded; the last one
// releases the pack.
func (e *packEntry[F]) retire() {
	if e != nil && e.readers.Add(-1) == 0 {
		e.p.Release()
		packsOpen.Add(-1)
	}
}

// release releases the packs whose readers did not all retire. It runs
// after the walk's final wait, when no reader can still be running.
func (t *packTable[F]) release() {
	for i := range t.entries {
		if e := &t.entries[i]; e.readers.Load() > 0 {
			e.readers.Store(0)
			e.p.Release()
			packsOpen.Add(-1)
		}
	}
}
