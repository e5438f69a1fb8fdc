package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	"exadla/internal/autotune"
	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// The -json mode measures the strong-scaling sweep for Cholesky/LU/QR and
// writes it as a machine-readable artifact, BENCH_scale.json: measured wall
// times at workers ∈ {1,2,4,…,NumCPU} against the serial blocked kernel,
// the recorded DAG replayed on virtual workers with sched.Simulate, and the
// trace.AnalyzeDAG work/span bound min(p, T₁/T∞) that no schedule can beat.
//
// CI runs this in -quick mode, archives the file, and diffs it against the
// committed baseline with -benchdiff; full mode adds n = 1024.
//
// Timing discipline: only the factorization itself is inside the timed
// region. Tiling the input, creating the runtime, and shutting it down
// happen outside, so the numbers measure kernel + dispatch cost, not setup.

// scaleMeasuredPoint is one measured wall-clock run of a tiled
// factorization at a real worker count.
type scaleMeasuredPoint struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Gflops  float64 `json:"gflops"`
	// Speedup is relative to the workers=1 measured time; DAGBound is the
	// trace-derived min(p, T₁/T∞) ceiling at this worker count.
	Speedup  float64 `json:"speedup"`
	DAGBound float64 `json:"dag_bound"`
}

// scaleSimPoint is the recorded task graph replayed by sched.Simulate on a
// virtual worker count — the scaling story on hosts with fewer cores than
// the sweep covers. DAGBound here is min(p, T₁/T∞) of the recorded cost
// graph itself, so speedup ≤ bound holds exactly; the trace-derived bound
// lives on the measured points and the op-level Trace fields.
type scaleSimPoint struct {
	Workers     int     `json:"workers"`
	Makespan    float64 `json:"makespan_seconds"`
	Speedup     float64 `json:"speedup"`
	Utilization float64 `json:"utilization"`
	DAGBound    float64 `json:"dag_bound"`
}

type scaleOpResult struct {
	Op    string `json:"op"`
	N     int    `json:"n"`
	NB    int    `json:"nb"`
	Tasks int    `json:"tasks"`
	// SerialSeconds times the serial blocked kernel (Potrf/Getrf/Geqrf) on
	// the same matrix; TiledOverSerialPct compares the workers=1 tiled run
	// against it (negative means the tiled path is slower).
	SerialSeconds      float64 `json:"serial_seconds"`
	TiledW1Seconds     float64 `json:"tiled_w1_seconds"`
	TiledOverSerialPct float64 `json:"tiled_over_serial_pct"`
	// GraphT1/GraphTInf are work and span of the Recorder-captured cost
	// graph (drives the simulated points); TraceT1/TraceTInf come from
	// trace.AnalyzeDAG over a real instrumented run.
	GraphT1   float64              `json:"graph_t1_seconds"`
	GraphTInf float64              `json:"graph_tinf_seconds"`
	TraceT1   float64              `json:"trace_t1_seconds"`
	TraceTInf float64              `json:"trace_tinf_seconds"`
	Measured  []scaleMeasuredPoint `json:"measured"`
	Simulated []scaleSimPoint      `json:"simulated"`
}

type scaleBenchReport struct {
	Benchmark  string          `json:"benchmark"`
	HostCPUs   int             `json:"host_cpus"`
	SimWorkers []int           `json:"sim_workers"`
	Ops        []scaleOpResult `json:"ops"`
}

// validate machine-checks the report's internal consistency: every
// simulated speedup must respect the DAG bound of its own cost graph
// (greedy list scheduling cannot beat min(p, T₁/T∞)), and speedups and
// bounds must be positive and finite. Called before the report is written
// and again by the decode round-trip test on the committed artifact.
func (r *scaleBenchReport) validate() error {
	const eps = 1e-6
	for _, op := range r.Ops {
		if op.GraphTInf <= 0 || op.GraphT1 <= 0 {
			return fmt.Errorf("%s n=%d: non-positive graph work/span (T1=%g TInf=%g)",
				op.Op, op.N, op.GraphT1, op.GraphTInf)
		}
		graphBound := func(p int) float64 {
			return math.Min(float64(p), op.GraphT1/op.GraphTInf)
		}
		for _, sp := range op.Simulated {
			if sp.Speedup <= 0 || math.IsInf(sp.Speedup, 0) || math.IsNaN(sp.Speedup) {
				return fmt.Errorf("%s n=%d w=%d: bad simulated speedup %g", op.Op, op.N, sp.Workers, sp.Speedup)
			}
			if b := graphBound(sp.Workers); sp.Speedup > b*(1+eps) {
				return fmt.Errorf("%s n=%d w=%d: simulated speedup %.4f exceeds DAG bound %.4f",
					op.Op, op.N, sp.Workers, sp.Speedup, b)
			}
		}
		for _, mp := range op.Measured {
			if mp.Seconds <= 0 {
				return fmt.Errorf("%s n=%d w=%d: non-positive measured time %g", op.Op, op.N, mp.Workers, mp.Seconds)
			}
		}
	}
	return nil
}

// minTimeSetup returns the fastest of reps runs, with a fresh untimed setup
// before every rep: setup returns the closure to time. Used wherever the
// measured operation destroys its input (factorizations) so re-preparation
// stays off the clock.
func minTimeSetup(reps int, setup func() func()) float64 {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		f := setup()
		if s := autotune.Time(f); s < best {
			best = s
		}
	}
	return best
}

// workerSweep returns the measured worker counts 1,2,4,… up to max,
// including max itself when it is not a power of two.
func workerSweep(max int) []int {
	var ws []int
	for w := 1; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	if ws[len(ws)-1] != max {
		ws = append(ws, max)
	}
	return ws
}

// scaleOp bundles what the sweep needs to know about one factorization;
// name is its core op, the tiled program the sweep runs.
type scaleOp struct {
	name   string
	matrix func(rng *rand.Rand, n int) []float64
	serial func(n int, a []float64) // in-place serial blocked kernel
	flops  func(n int) float64
}

func scaleOps() []scaleOp {
	return []scaleOp{
		{
			name:   core.OpCholesky,
			matrix: func(rng *rand.Rand, n int) []float64 { return matgen.DiagDomSPD[float64](rng, n) },
			serial: func(n int, a []float64) {
				if err := lapack.Potrf(blas.Lower, n, a, n); err != nil {
					panic(err)
				}
			},
			flops: func(n int) float64 { return float64(n) * float64(n) * float64(n) / 3 },
		},
		{
			name: core.OpLU,
			matrix: func(rng *rand.Rand, n int) []float64 {
				a := matgen.Dense[float64](rng, n, n)
				for i := 0; i < n; i++ {
					a[i+i*n] += float64(n) // diagonal dominance keeps pivots stable
				}
				return a
			},
			serial: func(n int, a []float64) {
				ipiv := make([]int, n)
				if err := lapack.Getrf(n, n, a, n, ipiv); err != nil {
					panic(err)
				}
			},
			flops: func(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) / 3 },
		},
		{
			name:   core.OpQR,
			matrix: func(rng *rand.Rand, n int) []float64 { return matgen.Dense[float64](rng, n, n) },
			serial: func(n int, a []float64) {
				tau := make([]float64, n)
				lapack.Geqrf(n, n, a, n, tau)
			},
			flops: func(n int) float64 { return 4 * float64(n) * float64(n) * float64(n) / 3 },
		},
	}
}

// simWorkerCounts are the virtual worker counts every recorded graph is
// replayed on — fixed regardless of host size so reports from different
// machines stay comparable.
var simWorkerCounts = []int{1, 2, 4, 8, 16, 32}

func benchScaleJSON(quick bool) error {
	sizes := pick(quick, []int{512}, []int{512, 1024})
	nbFor := func(n int) int {
		if n >= 1024 {
			return 96
		}
		return 64
	}
	reps := 2
	cpus := runtime.GOMAXPROCS(0)
	report := scaleBenchReport{
		Benchmark:  "strong-scaling-f64",
		HostCPUs:   cpus,
		SimWorkers: append([]int(nil), simWorkerCounts...),
	}
	fmt.Printf("\nstrong scaling: tiled Cholesky/LU/QR — measured workers %v, simulated %v\n",
		workerSweep(cpus), simWorkerCounts)

	for _, op := range scaleOps() {
		for _, n := range sizes {
			nb := nbFor(n)
			rng := rand.New(rand.NewSource(int64(n)))
			aD := op.matrix(rng, n)
			flops := op.flops(n)

			res := scaleOpResult{Op: op.name, N: n, NB: nb}

			res.SerialSeconds = minTimeSetup(reps, func() func() {
				work := append([]float64(nil), aD...)
				return func() { op.serial(n, work) }
			})

			// Measured sweep: one runtime per worker count, re-tiled input
			// per rep, only the factorization on the clock.
			var w1 float64
			for _, w := range workerSweep(cpus) {
				rt := sched.New(w)
				secs := minTimeSetup(reps, func() func() {
					at := tile.FromColMajor(n, n, aD, n, nb)
					return func() {
						if _, err := core.Factor(rt, op.name, at, nil, false); err != nil {
							panic(err)
						}
					}
				})
				rt.Shutdown()
				if w == 1 {
					w1 = secs
				}
				res.Measured = append(res.Measured, scaleMeasuredPoint{
					Workers: w,
					Seconds: secs,
					Gflops:  flops / secs / 1e9,
					Speedup: w1 / secs,
				})
			}
			res.TiledW1Seconds = w1
			res.TiledOverSerialPct = 100 * (res.SerialSeconds/w1 - 1)

			// Instrumented run: spans through trace.AnalyzeDAG give the
			// work/span decomposition of a real execution.
			tl := trace.NewLog()
			{
				rt := sched.New(1, sched.WithTracer(tl))
				at := tile.FromColMajor(n, n, aD, n, nb)
				if _, err := core.Factor(rt, op.name, at, nil, false); err != nil {
					panic(err)
				}
				rt.Shutdown()
			}
			st := tl.AnalyzeDAG()
			res.TraceT1, res.TraceTInf = st.T1, st.TInf
			for i := range res.Measured {
				res.Measured[i].DAGBound = st.SpeedupBound(res.Measured[i].Workers)
			}

			// Recorded cost graph replayed on virtual workers.
			g, _, err := record(op.name, tile.FromColMajor(n, n, aD, n, nb), false)
			if err != nil {
				panic(err)
			}
			for _, vw := range simWorkerCounts {
				// Tasks, T1 and TInf are the same for every worker count.
				d := simulate(g, vw)
				res.Tasks, res.GraphT1, res.GraphTInf = d.Tasks, d.T1, d.TInf
				res.Simulated = append(res.Simulated, scaleSimPoint{
					Workers:     vw,
					Makespan:    d.Makespan,
					Speedup:     d.Speedup(),
					Utilization: d.Speedup() / float64(vw),
					DAGBound:    d.SpeedupBound(vw),
				})
			}

			fmt.Printf("\n%s n=%d nb=%d: %d tasks, serial %.4fs, tiled w1 %.4fs (%+.1f%%), trace T1/T∞ = %.2f\n",
				op.name, n, nb, res.Tasks, res.SerialSeconds, w1, res.TiledOverSerialPct, st.T1/st.TInf)
			tbl := newTable("workers", "kind", "seconds", "speedup", "util %", "DAG bound")
			for _, mp := range res.Measured {
				tbl.add(mp.Workers, "measured", mp.Seconds, mp.Speedup, "-", mp.DAGBound)
			}
			for _, sp := range res.Simulated {
				tbl.add(sp.Workers, "simulated", sp.Makespan, sp.Speedup, 100*sp.Utilization, sp.DAGBound)
			}
			tbl.print()

			report.Ops = append(report.Ops, res)
		}
	}
	if err := report.validate(); err != nil {
		return fmt.Errorf("scaling report failed self-check: %w", err)
	}
	return writeBenchFile("BENCH_scale.json", report)
}

func writeBenchFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
