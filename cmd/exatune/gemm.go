package main

import (
	"fmt"
	"io"
	"math/rand"

	"exadla/internal/autotune"
	"exadla/internal/blas"
	"exadla/internal/matgen"
)

// gemmParam is one coordinate of the GEMM blocking search: a machine-global
// tuning key, the candidate values to sweep, and an accessor into Blocking.
type gemmParam struct {
	key        string
	candidates []int
	field      func(*blas.Blocking) *int
}

var gemmParams = []gemmParam{
	{"gemm.mr", []int{4, 8}, func(b *blas.Blocking) *int { return &b.MR }},
	{"gemm.kc", []int{64, 128, 192, 256, 384, 512}, func(b *blas.Blocking) *int { return &b.KC }},
	{"gemm.mc", []int{64, 128, 256, 384, 512}, func(b *blas.Blocking) *int { return &b.MC }},
	{"gemm.nc", []int{256, 512, 1024, 2048}, func(b *blas.Blocking) *int { return &b.NC }},
}

// tuneGemm runs coordinate descent over the packed-GEMM blocking factors:
// each parameter is swept with the others held at the incumbent best, in
// dependency order (register tile first, then the cache blocks built around
// it). Winners are persisted under machine-global keys — unlike the tiled
// factorizations, the blocking is a property of the cache hierarchy, not of
// the problem size.
func tuneGemm(stdout io.Writer, n, reps int, out string) error {
	rng := rand.New(rand.NewSource(1))
	a := matgen.Dense[float64](rng, n, n)
	b := matgen.Dense[float64](rng, n, n)
	c := make([]float64, n*n)

	cur := blas.GemmBlocking()
	defer blas.SetGemmBlocking(cur) // leave the process-default untouched

	measure := func(trial blas.Blocking) float64 {
		installed := blas.SetGemmBlocking(trial)
		if installed != trial {
			return -1 // clamped: candidate not representable, skip
		}
		return autotune.Time(func() {
			blas.Gemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
		})
	}

	fmt.Fprintf(stdout, "tuning gemm blocking n=%d (%d reps per candidate, coordinate descent)\n", n, reps)
	for _, p := range gemmParams {
		res := autotune.Search(p.candidates, reps, func(v int) float64 {
			trial := cur
			*p.field(&trial) = v
			return measure(trial)
		})
		fmt.Fprintf(stdout, "\n%-8s %-12s\n", p.key, "seconds")
		for _, m := range res.Table {
			mark := ""
			if m.Param == res.Best {
				mark = "← best"
			}
			if m.Pruned {
				mark = "(pruned)"
			}
			fmt.Fprintf(stdout, "%-8d %-12.4f %s\n", m.Param, m.Seconds, mark)
		}
		if res.Best >= 0 {
			*p.field(&cur) = res.Best
		}
	}

	flops := 2 * float64(n) * float64(n) * float64(n)
	best := measure(cur)
	fmt.Fprintf(stdout, "\nbest blocking: MR=%d NR=%d MC=%d KC=%d NC=%d (%.2f GF/s at n=%d)\n",
		cur.MR, cur.NR, cur.MC, cur.KC, cur.NC, flops/best/1e9, n)

	if out != "" {
		entries := map[string]int{}
		for _, p := range gemmParams {
			entries[autotune.GlobalKey(p.key)] = *p.field(&cur)
		}
		if err := update(out, entries); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved global gemm.* keys to %s\n", out)
	}
	return nil
}
