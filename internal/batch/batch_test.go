package batch_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/batch"
	"exadla/internal/blas"
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

// gemmSeq is the loop baseline of batch.Gemm.
func gemmSeq(m, n, k int, as, bs, cs [][]float64) {
	for i := range as {
		blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, as[i], m, bs[i], k, 0, cs[i], m)
	}
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

func TestBatchedGemmMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	count, m, n, k := 15, 7, 6, 5
	as := make([][]float64, count)
	bs := make([][]float64, count)
	cs := make([][]float64, count)
	cs2 := make([][]float64, count)
	for i := 0; i < count; i++ {
		as[i] = matgen.Dense[float64](rng, m, k)
		bs[i] = matgen.Dense[float64](rng, k, n)
		cs[i] = make([]float64, m*n)
		cs2[i] = make([]float64, m*n)
	}
	gemmSeq(m, n, k, as, bs, cs)
	r := sched.New(3)
	defer r.Shutdown()
	batch.Gemm(r, m, n, k, as, bs, cs2, batch.Options{ChunkSize: 2})
	for i := range cs {
		for j := range cs[i] {
			if math.Abs(cs[i][j]-cs2[i][j]) > 1e-12 {
				t.Fatalf("product %d differs", i)
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

func TestGemmRectangularChunking(t *testing.T) {
	// A rectangular batch must be chunked by its true m·n·k volume. A
	// 256×8×8 problem is 16k element-ops; the old max(m,n,k)³ estimate saw
	// 16M, picked 1-problem chunks, and produced one task per problem.
	count, m, n, k := 256, 256, 8, 8
	rng := rand.New(rand.NewSource(6))
	as := make([][]float64, count)
	bs := make([][]float64, count)
	cs := make([][]float64, count)
	cs2 := make([][]float64, count)
	for i := 0; i < count; i++ {
		as[i] = matgen.Dense[float64](rng, m, k)
		bs[i] = matgen.Dense[float64](rng, k, n)
		cs[i] = make([]float64, m*n)
		cs2[i] = make([]float64, m*n)
	}
	rec := sched.NewRecorder()
	batch.Gemm(rec, m, n, k, as, bs, cs, batch.Options{})
	tasks := trace.NewLog(sched.Simulate(rec.Graph(), 1)...).AnalyzeDAG().Tasks
	if tasks > count/2 {
		t.Errorf("rectangular %dx%dx%d batch of %d got %d tasks; chunking is ignoring the true volume",
			m, n, k, count, tasks)
	}
	if tasks < 1 {
		t.Fatal("no tasks at all")
	}
	// And the fused chunks must still compute the right products.
	gemmSeq(m, n, k, as, bs, cs2)
	for i := range cs {
		for j := range cs[i] {
			if cs[i][j] != cs2[i][j] {
				t.Fatalf("product %d differs at %d", i, j)
			}
		}
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
