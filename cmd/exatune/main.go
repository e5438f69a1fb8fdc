// Command exatune runs the empirical tile-size autotuner for the tiled
// factorizations and records the winners in a persistent tuning table.
//
// Usage:
//
//	exatune -op cholesky -n 1024 -workers 4 -out tuning.json
//	exatune -op qr -n 512
//	exatune -op gemm -n 768 -out tuning.json   # packed-GEMM blocking factors
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"

	"exadla/internal/autotune"
	"exadla/internal/core"
	"exadla/internal/matgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exatune:", err)
		os.Exit(1)
	}
}

// run parses args and executes one exatune invocation, writing its report
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exatune", flag.ContinueOnError)
	op := fs.String("op", "cholesky", "operation to tune: cholesky, lu, qr, or gemm")
	n := fs.Int("n", 1024, "problem size")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	reps := fs.Int("reps", 3, "repetitions per candidate (min is kept)")
	out := fs.String("out", "", "tuning table JSON to update (optional)")
	list := fs.String("nb", "16,32,48,64,96,128,192,256", "comma-separated tile sizes to try")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *op == "gemm" {
		// The GEMM blocking search sweeps its own per-parameter candidate
		// lists (coordinate descent); -nb and -workers do not apply.
		return tuneGemm(stdout, *n, *reps, *out)
	}

	candidates, err := parseList(*list)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(1))
	var aD []float64
	switch *op {
	case core.OpCholesky:
		aD = matgen.DiagDomSPD[float64](rng, *n)
	case core.OpLU, core.OpQR:
		aD = matgen.Dense[float64](rng, *n, *n)
	default:
		return fmt.Errorf("unknown op %q", *op)
	}

	fmt.Fprintf(stdout, "tuning %s n=%d workers=%d (%d reps per candidate)\n\n", *op, *n, *workers, *reps)
	res := autotune.TileSweep(*op, *n, aD, *workers, candidates, *reps)
	fmt.Fprintf(stdout, "%-6s %-12s %s\n", "nb", "seconds", "")
	for _, m := range res.Table {
		mark := ""
		if m.Param == res.Best {
			mark = "← best"
		}
		if m.Pruned {
			mark = "(pruned)"
		}
		fmt.Fprintf(stdout, "%-6d %-12.4f %s\n", m.Param, m.Seconds, mark)
	}
	if res.Best < 0 {
		return errors.New("no valid candidate")
	}
	key := autotune.Key(*op, *n, *workers)
	fmt.Fprintf(stdout, "\n%s → nb=%d\n", key, res.Best)

	if *out != "" {
		if err := update(*out, map[string]int{key: res.Best}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved to %s\n", *out)
	}
	return nil
}

// update sets entries in the tuning table at path, creating it if absent.
func update(path string, entries map[string]int) error {
	table, err := autotune.Load(path)
	if err != nil {
		return err
	}
	for k, v := range entries {
		table.Set(k, v)
	}
	return table.Save(path)
}

func parseList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad tile size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
