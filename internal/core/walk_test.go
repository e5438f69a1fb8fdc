package core_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// TestGuardedSolveIsOneGraph: a guarded factor-and-solve through core.Run
// is one dataflow graph — on a Recorder it records exactly one barrier
// node, the final wait — and its factor, its solution and its checkpoint
// files are bit for bit those of the two-walk composition: Protect, then
// Solve with the factor. Verify tasks are present exactly when ABFT is
// armed. On a Runtime the ABFT rows also lose a finalized tile silently:
// only the final verification sweep rebuilds it, so the solve, which reads
// it, must wait for the sweep. No-pivot LU has no solve, so its row walks
// the checkpointed factorization alone.
func TestGuardedSolveIsOneGraph(t *testing.T) {
	const n, nb, nrhs = 192, 48, 3
	cases := []struct {
		op         string
		ckpt, abft bool
		loss       core.TileLoss // at the last step, which no checkpoint follows
	}{
		{core.OpCholesky, false, true, core.TileLoss{Step: 3, I: 2, J: 0, Silent: true}},
		{core.OpCholesky, true, false, core.TileLoss{}},
		{core.OpCholesky, true, true, core.TileLoss{Step: 3, I: 2, J: 0, Silent: true}},
		{core.OpLU, false, true, core.TileLoss{Step: 3, I: 3, J: 0, Silent: true}},
		{core.OpLU, true, false, core.TileLoss{}},
		{core.OpLU, true, true, core.TileLoss{Step: 3, I: 3, J: 0, Silent: true}},
		{core.OpLUNoPiv, true, false, core.TileLoss{}},
	}
	for _, tc := range cases {
		name := tc.op
		if tc.abft {
			name += "+abft+erasure"
		}
		if tc.ckpt {
			name += "+ckpt"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			aD := matgen.DiagDomSPD[float64](rng, n)
			bD := make([]float64, n*nrhs)
			for i := range bD {
				bD[i] = rng.NormFloat64()
			}
			guards := func(lose bool) *core.Guards {
				g := &core.Guards{}
				if tc.ckpt {
					g.Ckpt = &core.CkptOptions{Dir: t.TempDir(), Every: 1}
				}
				if tc.abft {
					g.FT = &core.FTOptions{Erasure: true, Stats: &ft.Stats{}}
					if lose {
						g.FT.LoseTiles = []core.TileLoss{tc.loss}
					}
				}
				return g
			}
			solves := tc.op != core.OpLUNoPiv
			r := sched.New(2, sched.WithRetry(3, 0))
			defer r.Shutdown()

			want := guards(false)
			wantA := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
			f, err := core.Protect(r, tc.op, wantA, want.Ckpt, want.FT)
			if err != nil {
				t.Fatal(err)
			}
			wantB := tile.FromColMajor(n, nrhs, append([]float64(nil), bD...), n, nb)
			if solves {
				if err := core.Solve(r, f, wantB); err != nil {
					t.Fatal(err)
				}
			}

			rec := sched.NewRecorder()
			for _, s := range []sched.Scheduler{rec, r} {
				got := guards(s == r)
				var gotA, gotX []float64
				if solves {
					f, x, err := core.Run(s, nil, tc.op, tile.Deferred(n, n, aD, n, nb), tile.Deferred(n, nrhs, bD, n, nb), core.ThenSolve, got)
					if err != nil {
						t.Fatal(err)
					}
					gotA, gotX = f.A.ToColMajor(), x
				} else {
					a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
					if _, err := core.Protect(s, tc.op, a, got.Ckpt, got.FT); err != nil {
						t.Fatal(err)
					}
					gotA = a.ToColMajor()
				}
				sameBits(t, "factor", gotA, wantA.ToColMajor())
				if solves {
					sameBits(t, "solution", gotX, wantB.ToColMajor())
				}
				if tc.ckpt {
					sameFiles(t, got.Ckpt.Dir, want.Ckpt.Dir)
				}
				if tc.abft && s == r {
					if n := got.FT.Stats.TilesReconstructed.Load(); n != 1 {
						t.Errorf("%d tiles rebuilt after the silent loss, want 1", n)
					}
				}
			}

			barriers, verifies := 0, 0
			nodes := rec.Graph().Nodes
			for _, nd := range nodes {
				if nd.Barrier {
					barriers++
				}
				if nd.Name == "verify" {
					verifies++
				}
			}
			if barriers != 1 || !nodes[len(nodes)-1].Barrier {
				t.Errorf("%d barrier nodes, last node %q: want one, the final wait", barriers, nodes[len(nodes)-1].Name)
			}
			if (verifies > 0) != tc.abft {
				t.Errorf("%d verify tasks with ABFT armed %v", verifies, tc.abft)
			}
		})
	}
}

// sameBits fails t unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// sameFiles fails t unless directories got and want hold the same file
// names with the same bytes, and at least one file.
func sameFiles(t *testing.T, got, want string) {
	t.Helper()
	gotEnts, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	wantEnts, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEnts) == 0 || len(gotEnts) != len(wantEnts) {
		t.Fatalf("%d checkpoint files, want %d (and at least one)", len(gotEnts), len(wantEnts))
	}
	for i, e := range gotEnts {
		if e.Name() != wantEnts[i].Name() {
			t.Fatalf("checkpoint file %q, want %q", e.Name(), wantEnts[i].Name())
		}
		g, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("checkpoint file %s differs from the two-walk run's", e.Name())
		}
	}
}
