package blas

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

const (
	tol64 = 1e-12
	tol32 = 1e-4
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func randMat(rng *rand.Rand, m, n, ld int) []float64 {
	s := make([]float64, ld*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s[i+j*ld] = rng.NormFloat64()
		}
	}
	return s
}

func maxAbsDiff[T Float](a, b []T) float64 {
	if len(a) != len(b) {
		panic("length mismatch")
	}
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i]) - float64(b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 100} {
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		want := 0.0
		for i := range x {
			want += x[i] * y[i]
		}
		if got := Dot(n, x, 1, y, 1); math.Abs(got-want) > tol64*float64(n+1) {
			t.Errorf("Dot n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestDotStrided(t *testing.T) {
	x := []float64{1, 99, 2, 99, 3}
	y := []float64{4, 5, 6}
	// x strided by 2 -> (1,2,3); dot = 4+10+18 = 32.
	if got := Dot(3, x, 2, y, 1); got != 32 {
		t.Errorf("strided Dot: got %v want 32", got)
	}
	// Negative stride reverses the logical order of x: (3,2,1)·(4,5,6)=28.
	if got := Dot(3, x, -2, y, 1); got != 28 {
		t.Errorf("negative stride Dot: got %v want 28", got)
	}
}

func TestNrm2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 333} {
		x := randSlice(rng, n)
		want := 0.0
		for _, v := range x {
			want += v * v
		}
		want = math.Sqrt(want)
		if got := Nrm2(n, x, 1); math.Abs(got-want) > tol64*(want+1) {
			t.Errorf("Nrm2 n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestNrm2OverflowSafety(t *testing.T) {
	// Values whose squares overflow float64; the scaled algorithm must not.
	big := math.MaxFloat64 / 2
	x := []float64{big, big}
	got := Nrm2(2, x, 1)
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Errorf("Nrm2 overflow: got %v want %v", got, want)
	}
	// And float32 underflow: tiny values squared flush to zero naively.
	tiny := float32(1e-22)
	xf := []float32{tiny, tiny}
	gotf := Nrm2(2, xf, 1)
	wantf := tiny * float32(math.Sqrt2)
	if gotf == 0 || math.Abs(float64(gotf-wantf))/float64(wantf) > 1e-6 {
		t.Errorf("Nrm2 underflow: got %v want %v", gotf, wantf)
	}
}

// bigNrm2 is the Euclidean norm of the finite n-vector x (stride inc) in
// 256-bit arithmetic, whose exponent range holds any float64 square.
func bigNrm2(n int, x []float64, inc int) float64 {
	const prec = 256
	sum := new(big.Float).SetPrec(prec)
	for i, ix := 0, vstart(n, inc); i < n; i, ix = i+1, ix+inc {
		v := new(big.Float).SetPrec(prec).SetFloat64(x[ix])
		sum.Add(sum, v.Mul(v, v))
	}
	f, _ := sum.Sqrt(sum).Float64()
	return f
}

// strided lays the vector v out with stride inc (negative inc reverses
// the storage order, as BLAS does) and a 7 in every gap.
func strided(v []float64, inc int) []float64 {
	step := max(inc, -inc)
	x := make([]float64, 1+(len(v)-1)*step)
	for i := range x {
		x[i] = 7
	}
	for i, ix := 0, vstart(len(v), inc); i < len(v); i, ix = i+1, ix+inc {
		x[ix] = v[i]
	}
	return x
}

// TestNrm2Extremes checks Nrm2 against a 256-bit reference where a plain
// sum of squares overflows or underflows — near 1e±300, around the square
// roots of the float64 range limits, subnormals, mixed magnitudes — and
// on the values whose fast path stays exact, for unit, strided and
// negative strides; float32 data at its own range limits; and NaN/±Inf
// propagation (any NaN gives NaN, otherwise any infinity gives +Inf).
func TestNrm2Extremes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	scaled := func(n int, s float64) []float64 {
		v := randSlice(rng, n)
		for i := range v {
			v[i] *= s
		}
		return v
	}
	cases := map[string][]float64{
		"1e300":       scaled(9, 1e300),
		"1e-300":      scaled(9, 1e-300),
		"1e154":       scaled(40, 1e154),
		"1e-154":      scaled(40, 1e-154),
		"1e-160":      scaled(40, 1e-160),
		"subnormal":   {4.9e-324, -1e-320, 3e-310, 0, 2.2e-308},
		"mixed":       {1e300, 1, -1e-300, 0, 5e-324},
		"tiny+normal": {1e-200, 1e-170, -3e-160},
		"max":         {math.MaxFloat64, -math.MaxFloat64 / 3},
		"unit":        scaled(333, 1),
		"zero":        {0, 0, -0.0},
		"one":         {-3e-310},
	}
	for name, v := range cases {
		want := bigNrm2(len(v), v, 1)
		for _, inc := range []int{1, 3, -2} {
			got := Nrm2(len(v), strided(v, inc), inc)
			if math.Abs(got-want) > 4e-16*float64(len(v))*want {
				t.Errorf("%s inc=%d: Nrm2 = %v, 256-bit reference %v", name, inc, got, want)
			}
		}
	}

	for name, s := range map[string]float64{"1e38": 1e38, "1e-40": 1e-40, "1e-44": 1e-44} {
		v := scaled(12, s)
		v32 := make([]float32, len(v))
		for i := range v {
			v32[i] = float32(v[i])
			v[i] = float64(v32[i])
		}
		// Within one float32 ulp of the rounded reference, which is itself
		// subnormal in the smaller cases.
		want := float32(bigNrm2(len(v), v, 1))
		if got := Nrm2(len(v32), v32, 1); got != want && math.Nextafter32(want, got) != got {
			t.Errorf("float32 %s: Nrm2 = %v, 256-bit reference %v", name, got, want)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, nan, 2}, nan},
		{[]float64{1e300, -inf, 2}, inf},
		{[]float64{inf, 1, nan}, nan},
		{[]float64{nan, 1e-320, -inf}, nan},
		{[]float64{-inf}, inf},
	} {
		for _, inc := range []int{1, 3, -2} {
			got := Nrm2(len(c.v), strided(c.v, inc), inc)
			if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(got) && got != c.want) {
				t.Errorf("%v inc=%d: Nrm2 = %v, want %v", c.v, inc, got, c.want)
			}
		}
	}
}

func TestAxpyScalCopySwap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 57
	x := randSlice(rng, n)
	y := randSlice(rng, n)
	y2 := append([]float64(nil), y...)
	Axpy(n, 2.5, x, 1, y, 1)
	for i := range y {
		want := y2[i] + 2.5*x[i]
		if math.Abs(y[i]-want) > tol64 {
			t.Fatalf("Axpy[%d]: got %v want %v", i, y[i], want)
		}
	}
	Scal(n, 0.5, y, 1)
	Copy(n, y, 1, y2, 1)
	if maxAbsDiff(y, y2) != 0 {
		t.Fatal("Copy mismatch")
	}
	x2 := append([]float64(nil), x...)
	Swap(n, x, 1, y, 1)
	if maxAbsDiff(x, y2) != 0 || maxAbsDiff(y, x2) != 0 {
		t.Fatal("Swap mismatch")
	}
}

func TestFloat32Kernels(t *testing.T) {
	// The generic kernels must work identically for float32.
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	if got := Dot(3, x, 1, y, 1); got != 32 {
		t.Errorf("float32 Dot: got %v want 32", got)
	}
	Axpy(3, 2, x, 1, y, 1)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Errorf("float32 Axpy: got %v", y)
	}
}

func TestVectorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative n", func() { Dot[float64](-1, nil, 1, nil, 1) })
	mustPanic("zero stride", func() { Dot(1, []float64{1}, 0, []float64{1}, 1) })
	mustPanic("short x", func() { Dot(3, []float64{1}, 1, []float64{1, 2, 3}, 1) })
}
