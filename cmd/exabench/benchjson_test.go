package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Round-trip and committed-artifact tests for the benchmark JSON schemas:
// the structs must survive encode→decode unchanged, and the artifacts
// checked into the repo root must decode with the current schema and honor
// the PR's performance claims (self-consistent DAG bounds, tiled keeping up
// with serial at n ≥ 512).

func sampleScaleReport() scaleBenchReport {
	return scaleBenchReport{
		Benchmark:  "strong-scaling-f64",
		HostCPUs:   4,
		SimWorkers: []int{1, 2, 4},
		Ops: []scaleOpResult{{
			Op: "cholesky", N: 512, NB: 64, Tasks: 120,
			SerialSeconds:      0.040,
			TiledW1Seconds:     0.039,
			TiledOverSerialPct: 2.5,
			GraphT1:            0.040, GraphTInf: 0.008,
			TraceT1: 0.041, TraceTInf: 0.009,
			Measured: []scaleMeasuredPoint{
				{Workers: 1, Seconds: 0.039, Gflops: 1.1, Speedup: 1, DAGBound: 1},
				{Workers: 4, Seconds: 0.012, Gflops: 3.6, Speedup: 3.25, DAGBound: 4},
			},
			Simulated: []scaleSimPoint{
				{Workers: 1, Makespan: 0.040, Speedup: 1, Utilization: 1, DAGBound: 1},
				{Workers: 4, Makespan: 0.011, Speedup: 3.6, Utilization: 0.9, DAGBound: 4},
			},
		}},
	}
}

func TestScaleReportRoundTrip(t *testing.T) {
	want := sampleScaleReport()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got scaleBenchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, want)
	}
	if err := want.validate(); err != nil {
		t.Fatalf("sample report failed validate: %v", err)
	}
}

func TestScaleReportValidateCatchesBoundViolation(t *testing.T) {
	r := sampleScaleReport()
	// A simulated speedup above min(p, T1/TInf) is impossible for greedy
	// list scheduling; validate must reject it.
	r.Ops[0].Simulated[1].Speedup = 100
	if err := r.validate(); err == nil {
		t.Fatal("validate accepted a simulated speedup above the DAG bound")
	}
}

// repoRoot walks up from the test's working directory to the directory
// holding go.mod, where the benchmark artifacts live.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func TestCommittedScaleArtifactDecodesAndHoldsClaims(t *testing.T) {
	path := filepath.Join(repoRoot(t), "BENCH_scale.json")
	r, err := loadScaleReport(path)
	if err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	if err := r.validate(); err != nil {
		t.Fatalf("committed artifact fails self-check: %v", err)
	}
	if len(r.Ops) == 0 {
		t.Fatal("committed artifact has no ops")
	}
	for _, op := range r.Ops {
		if len(op.Measured) == 0 || len(op.Simulated) == 0 {
			t.Errorf("%s n=%d: missing measured or simulated sweep", op.Op, op.N)
		}
		// The PR's headline claim: at one worker, the tiled dataflow path
		// keeps up with the serial blocked kernel (within 5%) once the
		// flops dominate, n ≥ 512.
		if op.Op == "cholesky" && op.N >= 512 && op.TiledOverSerialPct < -5 {
			t.Errorf("cholesky n=%d: tiled workers=1 is %.1f%% vs serial, want ≥ -5%%",
				op.N, op.TiledOverSerialPct)
		}
	}
}
