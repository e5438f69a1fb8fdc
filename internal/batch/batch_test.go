package batch_test

import (
	"math/rand"
	"testing"

	"exadla/internal/batch"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/trace"
)

// getrfSeq is the loop baseline of batch.Getrf.
func getrfSeq(n int, mats [][]float64) (pivs [][]int, errs []error) {
	pivs = make([][]int, len(mats))
	errs = make([]error, len(mats))
	for i := range mats {
		pivs[i] = make([]int, n)
		errs[i] = lapack.Getf2(n, n, mats[i], n, pivs[i])
	}
	return pivs, errs
}

func spdBatch(rng *rand.Rand, count, n int) [][]float64 {
	mats := make([][]float64, count)
	for i := range mats {
		mats[i] = matgen.DiagDomSPD[float64](rng, n)
	}
	return mats
}

func cloneBatch(mats [][]float64) [][]float64 {
	out := make([][]float64, len(mats))
	for i, m := range mats {
		out[i] = append([]float64(nil), m...)
	}
	return out
}

func TestBatchedPotrfMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	count, n := 37, 8
	mats := spdBatch(rng, count, n)
	seq := cloneBatch(mats)
	par := cloneBatch(mats)

	if errs := batch.PotrfSeq(n, seq); anyErr(errs) {
		t.Fatal("seq errors")
	}
	r := sched.New(4)
	defer r.Shutdown()
	for _, cs := range []int{1, 5, 100} {
		got := cloneBatch(par)
		if errs := batch.Potrf(r, n, got, batch.Options{ChunkSize: cs}); anyErr(errs) {
			t.Fatalf("chunk %d: errors", cs)
		}
		for i := range got {
			for k := range got[i] {
				if got[i][k] != seq[i][k] {
					t.Fatalf("chunk %d: matrix %d differs at %d", cs, i, k)
				}
			}
		}
	}
}

func TestBatchedPotrfReportsPerMatrixErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 6
	mats := spdBatch(rng, 5, n)
	// Break matrix 3.
	mats[3][2+2*n] = -1e6
	r := sched.New(2)
	defer r.Shutdown()
	errs := batch.Potrf(r, n, mats, batch.Options{})
	for i, err := range errs {
		if i == 3 && err == nil {
			t.Error("matrix 3 should have failed")
		}
		if i != 3 && err != nil {
			t.Errorf("matrix %d unexpectedly failed: %v", i, err)
		}
	}
}

func TestBatchedGetrfMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	count, n := 21, 10
	mats := make([][]float64, count)
	for i := range mats {
		mats[i] = matgen.Dense[float64](rng, n, n)
	}
	seq := cloneBatch(mats)
	pivSeq, errsSeq := getrfSeq(n, seq)
	if anyErr(errsSeq) {
		t.Fatal("seq errors")
	}
	r := sched.New(4)
	defer r.Shutdown()
	got := cloneBatch(mats)
	pivPar, errsPar := batch.Getrf(r, n, got, batch.Options{ChunkSize: 4})
	if anyErr(errsPar) {
		t.Fatal("par errors")
	}
	for i := range got {
		for k := range got[i] {
			if got[i][k] != seq[i][k] {
				t.Fatalf("matrix %d differs", i)
			}
		}
		for k := range pivPar[i] {
			if pivPar[i][k] != pivSeq[i][k] {
				t.Fatalf("pivots of matrix %d differ", i)
			}
		}
	}
}

func TestDefaultChunkSize(t *testing.T) {
	// Tiny problems must be fused into multi-problem chunks by default:
	// the recorded graph has far fewer tasks than problems.
	rng := rand.New(rand.NewSource(5))
	count, n := 1000, 4
	mats := spdBatch(rng, count, n)
	rec := sched.NewRecorder()
	batch.Potrf(rec, n, mats, batch.Options{})
	tasks := trace.NewLog(sched.Simulate(rec.Graph(), 1)...).AnalyzeDAG().Tasks
	if tasks >= count {
		t.Errorf("default chunking produced %d tasks for %d problems", tasks, count)
	}
	if tasks < 1 {
		t.Error("no tasks at all")
	}
}

func TestBatchedPotrfPanicIsolation(t *testing.T) {
	// A panicking kernel (here: an undersized backing slice) must fail only
	// its own entry, not the chunk around it or the whole batch.
	rng := rand.New(rand.NewSource(7))
	count, n := 20, 8
	mats := spdBatch(rng, count, n)
	mats[5] = mats[5][:3] // out-of-range panic inside Potf2
	r := sched.New(2)
	defer r.Shutdown()
	errs := batch.Potrf(r, n, mats, batch.Options{ChunkSize: 10})
	for i, err := range errs {
		if i == 5 {
			if err == nil {
				t.Error("problem 5 should have failed")
			}
			continue
		}
		if err != nil {
			t.Errorf("problem %d unexpectedly failed: %v", i, err)
		}
	}
	// Problems after the panicking one in the same chunk still ran.
	ref := spdBatch(rand.New(rand.NewSource(7)), count, n)
	if errsRef := batch.PotrfSeq(n, ref); anyErr(errsRef) {
		t.Fatal("reference errors")
	}
	for k := range mats[9] {
		if mats[9][k] != ref[9][k] {
			t.Fatal("problem 9 (same chunk as the panic) was not computed")
		}
	}
	// The runtime survived and is reusable.
	good := spdBatch(rng, 4, n)
	if errs := batch.Potrf(r, n, good, batch.Options{}); anyErr(errs) {
		t.Error("runtime unusable after a batched panic")
	}
}

func TestBatchedGetrfPanicIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	count, n := 12, 6
	mats := make([][]float64, count)
	for i := range mats {
		mats[i] = matgen.Dense[float64](rng, n, n)
	}
	mats[2] = mats[2][:4]
	r := sched.New(2)
	defer r.Shutdown()
	pivs, errs := batch.Getrf(r, n, mats, batch.Options{ChunkSize: 6})
	for i, err := range errs {
		if i == 2 {
			if err == nil {
				t.Error("problem 2 should have failed")
			}
			continue
		}
		if err != nil {
			t.Errorf("problem %d unexpectedly failed: %v", i, err)
		}
		if len(pivs[i]) != n {
			t.Errorf("problem %d missing pivots", i)
		}
	}
}

func anyErr(errs []error) bool {
	for _, e := range errs {
		if e != nil {
			return true
		}
	}
	return false
}
