package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"exadla/internal/ckpt"
	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// graphNamer gives every handle of a recorded graph a stable name: tiles of
// the named matrices by label and coordinates, any other datum (checksum
// pairs, parity rows) by its type and order of first appearance.
type graphNamer struct {
	labels []string
	mats   []*tile.Matrix[float64]
	other  map[sched.Handle]int
}

func (nm *graphNamer) add(label string, m *tile.Matrix[float64]) *tile.Matrix[float64] {
	nm.labels = append(nm.labels, label)
	nm.mats = append(nm.mats, m)
	return m
}

func (nm *graphNamer) name(h sched.Handle) string {
	if th, ok := h.(tile.Handle); ok {
		i, j := th.Coords()
		for k, m := range nm.mats {
			if i < m.MT && j < m.NT && m.Handle(i, j) == th {
				return fmt.Sprintf("%s(%d,%d)", nm.labels[k], i, j)
			}
		}
	}
	if nm.other == nil {
		nm.other = map[sched.Handle]int{}
	}
	idx, ok := nm.other[h]
	if !ok {
		idx = len(nm.other)
		nm.other[h] = idx
	}
	return fmt.Sprintf("%T#%d", h, idx)
}

// graphDigest hashes everything a recorded graph says about the program:
// per node its kernel name, priority, barrier flag, sorted dependences and
// the named tiles it reads and writes.
func graphDigest(g *sched.Graph, nm *graphNamer) string {
	var sb strings.Builder
	for i, n := range g.Nodes {
		deps := append([]int(nil), n.Deps...)
		sort.Ints(deps)
		fmt.Fprintf(&sb, "%d %s p=%d b=%v d=%v r=[", i, n.Name, n.Priority, n.Barrier, deps)
		for _, h := range n.Reads {
			sb.WriteString(nm.name(h) + " ")
		}
		sb.WriteString("] w=[")
		for _, h := range n.Writes {
			sb.WriteString(nm.name(h) + " ")
		}
		sb.WriteString("]\n")
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%d:%s", len(g.Nodes), hex.EncodeToString(sum[:8]))
}

// TestProgramGraphsUnchanged pins the task graph every factorization entry
// point submits — kernel names, priorities, tile accesses, dependences and
// fork–join barriers — on square, non-square and non-multiple-of-nb tile
// grids. The digests were recorded before the factorizations were moved
// onto core.Program — the lu rows when its program became partial
// pivoting, the qr, qrtree and gels rows while QR still submitted its own
// nests, the solve rows while the right-hand-side sweeps were hand-written
// nests; any change to a loop nest, an access list, a priority or a
// barrier shows up here.
func TestProgramGraphsUnchanged(t *testing.T) {
	mat := func(nm *graphNamer, label string, m, n int) *tile.Matrix[float64] {
		return nm.add(label, tile.New[float64](m, n, 16))
	}
	// deferred is mat held column-major, its tiles filled by the walk.
	deferred := func(nm *graphNamer, label string, m, n int) *tile.Matrix[float64] {
		return nm.add(label, tile.Deferred(m, n, make([]float64, m*n), m, 16))
	}
	chk := func(op ckpt.Op, m, n, step int) *ckpt.Checkpoint {
		c := &ckpt.Checkpoint{Op: op, Step: step, A: tile.New[float64](m, n, 16)}
		if op == ckpt.OpLU {
			for r := range min(step*16, m, n) {
				c.Piv = append(c.Piv, r)
			}
		}
		return c
	}
	cases := []struct {
		name string
		run  func(s sched.Scheduler, nm *graphNamer)
	}{
		{"cholesky/80", func(s sched.Scheduler, nm *graphNamer) { _ = core.Cholesky(s, mat(nm, "A", 80, 80)) }},
		{"cholesky/50", func(s sched.Scheduler, nm *graphNamer) { _ = core.Cholesky(s, mat(nm, "A", 50, 50)) }},
		{"cholesky-fj/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Factor(s, core.OpCholesky, mat(nm, "A", 50, 50), nil, true)
		}},
		{"posv/50x20", func(s sched.Scheduler, nm *graphNamer) {
			_ = core.Posv(s, mat(nm, "A", 50, 50), mat(nm, "B", 50, 20))
		}},
		{"potri/50", func(s sched.Scheduler, nm *graphNamer) { _ = core.Potri(s, mat(nm, "A", 50, 50)) }},
		{"potri/80", func(s sched.Scheduler, nm *graphNamer) { _ = core.Potri(s, mat(nm, "A", 80, 80)) }},
		{"multiply/50x40·40x20", func(s sched.Scheduler, nm *graphNamer) {
			core.Gemm(s, mat(nm, "A", 50, 40), mat(nm, "B", 40, 20), mat(nm, "C", 50, 20))
		}},
		{"lu/64", func(s sched.Scheduler, nm *graphNamer) { _, _ = core.LU(s, mat(nm, "A", 64, 64)) }},
		{"lu/90", func(s sched.Scheduler, nm *graphNamer) { _, _ = core.LU(s, mat(nm, "A", 90, 90)) }},
		{"lu/80x48", func(s sched.Scheduler, nm *graphNamer) { _, _ = core.LU(s, mat(nm, "A", 80, 48)) }},
		{"lu/48x80", func(s sched.Scheduler, nm *graphNamer) { _, _ = core.LU(s, mat(nm, "A", 48, 80)) }},
		{"lu/100x45", func(s sched.Scheduler, nm *graphNamer) { _, _ = core.LU(s, mat(nm, "A", 100, 45)) }},
		{"lu-fj/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Factor(s, core.OpLU, mat(nm, "A", 50, 50), nil, true)
		}},
		{"lu-fj/80x48", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Factor(s, core.OpLU, mat(nm, "A", 80, 48), nil, true)
		}},
		{"lu-fj/48x80", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Factor(s, core.OpLU, mat(nm, "A", 48, 80), nil, true)
		}},
		{"gesv/50x20", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Gesv(s, mat(nm, "A", 50, 50), mat(nm, "B", 50, 20))
		}},
		{"ckpt-cholesky-abort/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpCholesky, mat(nm, "A", 50, 50), &core.CkptOptions{Every: 1, AbortAtStep: 2}, nil)
		}},
		{"ckpt-lu-abort/64", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpLU, mat(nm, "A", 64, 64), &core.CkptOptions{Every: 1, AbortAtStep: 2}, nil)
		}},
		{"ckpt-lu-abort/80x48", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpLU, mat(nm, "A", 80, 48), &core.CkptOptions{Every: 2, AbortAtStep: 2}, nil)
		}},
		{"resume-cholesky/50@2", func(s sched.Scheduler, nm *graphNamer) {
			a, _, _ := core.Resume(s, chk(ckpt.OpCholesky, 50, 50, 2), &core.CkptOptions{Every: 2}, nil)
			nm.add("A", a)
		}},
		{"resume-lu/64@2", func(s sched.Scheduler, nm *graphNamer) {
			a, _, _ := core.Resume(s, chk(ckpt.OpLU, 64, 64, 2), &core.CkptOptions{Every: 1}, nil)
			nm.add("A", a)
		}},
		{"resume-lu/80x48@2", func(s sched.Scheduler, nm *graphNamer) {
			a, _, _ := core.Resume(s, chk(ckpt.OpLU, 80, 48, 2), &core.CkptOptions{Every: 1}, nil)
			nm.add("A", a)
		}},
		{"resilient-cholesky/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpCholesky, mat(nm, "A", 50, 50), nil, &core.FTOptions{Erasure: true})
		}},
		{"resilient-lu/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpLU, mat(nm, "A", 50, 50), nil, &core.FTOptions{Erasure: true})
		}},
		{"ckpt-abft-cholesky/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpCholesky, mat(nm, "A", 50, 50), &core.CkptOptions{Every: 1}, &core.FTOptions{Erasure: true})
		}},
		{"ckpt-abft-lu/64", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpLU, mat(nm, "A", 64, 64), &core.CkptOptions{Every: 1}, &core.FTOptions{Erasure: true})
		}},
		{"resume-abft-cholesky/50@2", func(s sched.Scheduler, nm *graphNamer) {
			a, _, _ := core.Resume(s, chk(ckpt.OpCholesky, 50, 50, 2), &core.CkptOptions{Every: 1}, &core.FTOptions{Erasure: true})
			nm.add("A", a)
		}},
		{"qr/80x48", func(s sched.Scheduler, nm *graphNamer) { core.QR(s, mat(nm, "A", 80, 48)); s.Wait() }},
		{"qrtree/80x48", func(s sched.Scheduler, nm *graphNamer) { core.QRTree(s, mat(nm, "A", 80, 48)); s.Wait() }},
		{"qr-fj/80x48", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Factor(s, core.OpQR, mat(nm, "A", 80, 48), nil, true)
			s.Wait()
		}},
		{"qr/50x50", func(s sched.Scheduler, nm *graphNamer) { core.QR(s, mat(nm, "A", 50, 50)); s.Wait() }},
		{"qrtree/100x45", func(s sched.Scheduler, nm *graphNamer) { core.QRTree(s, mat(nm, "A", 100, 45)); s.Wait() }},
		{"gels/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			core.Gels(s, mat(nm, "A", 80, 48), mat(nm, "B", 80, 20))
		}},
		{"gelstree/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Factor(s, core.OpQRTree, mat(nm, "A", 80, 48), mat(nm, "B", 80, 20), false)
		}},
		// The solves alone, on factors computed off the record.
		{"chol-solve/50+B50x20", func(s sched.Scheduler, nm *graphNamer) {
			f, _ := core.Factor(sched.NewModelRecorder(), core.OpCholesky, mat(nm, "A", 50, 50), nil, false)
			_ = core.Solve(s, f, mat(nm, "B", 50, 20))
		}},
		{"lu-solve/50+B50x20", func(s sched.Scheduler, nm *graphNamer) {
			f, _ := core.LU(sched.NewModelRecorder(), mat(nm, "A", 50, 50))
			_ = core.Solve(s, f, mat(nm, "B", 50, 20))
		}},
		{"lu-elim/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			f, _ := core.LU(sched.NewModelRecorder(), mat(nm, "A", 80, 48))
			core.ApplySweep(s, f, mat(nm, "B", 80, 20), 0)
		}},
		{"qt/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			f := core.QR(sched.NewModelRecorder(), mat(nm, "A", 80, 48))
			core.ApplyQT(s, f, mat(nm, "B", 80, 20))
		}},
		{"qt-tree/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			f := core.QRTree(sched.NewModelRecorder(), mat(nm, "A", 80, 48))
			core.ApplyQT(s, f, mat(nm, "B", 80, 20))
		}},
		// The same walks on deferred operands: convert tasks first, and
		// gather tasks last where core.Run copies a result out.
		{"run-posv/50x20", func(s sched.Scheduler, nm *graphNamer) {
			_, _, _ = core.Run(s, nil, core.OpCholesky, deferred(nm, "A", 50, 50), deferred(nm, "B", 50, 20), core.ThenSolve, nil)
		}},
		{"run-gesv/50x20", func(s sched.Scheduler, nm *graphNamer) {
			_, _, _ = core.Run(s, nil, core.OpLU, deferred(nm, "A", 50, 50), deferred(nm, "B", 50, 20), core.ThenSolve, nil)
		}},
		{"run-potri/50", func(s sched.Scheduler, nm *graphNamer) {
			a := deferred(nm, "A", 50, 50)
			_, _, _ = core.Run(s, nil, core.OpCholesky, a, a, core.ThenInvert, nil)
		}},
		{"run-gels/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			_, _, _ = core.Run(s, nil, core.OpQR, deferred(nm, "A", 80, 48), deferred(nm, "B", 80, 20), core.ThenSolve, nil)
		}},
		{"run-gelstree/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			_, _, _ = core.Run(s, nil, core.OpQRTree, deferred(nm, "A", 80, 48), deferred(nm, "B", 80, 20), core.ThenSolve, nil)
		}},
		{"run-chol-solve/50+B50x20", func(s sched.Scheduler, nm *graphNamer) {
			f, _ := core.Factor(sched.NewModelRecorder(), core.OpCholesky, mat(nm, "A", 50, 50), nil, false)
			_, _, _ = core.Run(s, f, "", nil, deferred(nm, "B", 50, 20), core.ThenSolve, nil)
		}},
		{"run-qt/80x48+B80x20", func(s sched.Scheduler, nm *graphNamer) {
			f := core.QR(sched.NewModelRecorder(), mat(nm, "A", 80, 48))
			_, _, _ = core.Run(s, f, "", nil, deferred(nm, "B", 80, 20), core.ThenQT, nil)
		}},
		{"run-invert/50", func(s sched.Scheduler, nm *graphNamer) {
			f, _ := core.Factor(sched.NewModelRecorder(), core.OpCholesky, mat(nm, "A", 50, 50), nil, false)
			_, _, _ = core.Run(s, f, "", nil, f.A, core.ThenInvert, nil)
		}},
		{"qr-deferred/80x48", func(s sched.Scheduler, nm *graphNamer) { core.QR(s, deferred(nm, "A", 80, 48)); s.Wait() }},
		{"ckpt-cholesky-abort-deferred/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpCholesky, deferred(nm, "A", 50, 50), &core.CkptOptions{Every: 1, AbortAtStep: 2}, nil)
		}},
		// ABFT takes its checksums from the input before the walk, so it
		// fills a deferred A first: the graph is resilient-cholesky/50's.
		{"resilient-cholesky-deferred/50", func(s sched.Scheduler, nm *graphNamer) {
			_, _ = core.Protect(s, core.OpCholesky, deferred(nm, "A", 50, 50), nil, &core.FTOptions{Erasure: true})
		}},
	}
	want := map[string]string{
		"cholesky/80":            "36:1180eb2e8fb96881",
		"cholesky/50":            "21:ee27237c7fd971b8",
		"cholesky-fj/50":         "30:dd57c92066b59a06",
		"posv/50x20":             "61:077877ab57a410be",
		"potri/50":               "47:a0e442adebd285de",
		"potri/80":               "76:830af0dfdfcf6862",
		"multiply/50x40·40x20":   "8:f896b88b9376932a",
		"lu/64":                  "25:fb5ddefb17817d5b",
		"lu/90":                  "77:da0ea688ed3c897e",
		"lu/80x48":               "18:270ffa595c8d08c8",
		"lu/48x80":               "24:c9d9643d7243ef8a",
		"lu/100x45":              "24:e206f2a574907479",
		"lu-fj/50":               "34:88bc361886284181",
		"lu-fj/80x48":            "24:c837380d807020fd",
		"lu-fj/48x80":            "31:37b4ca8cee7a4f07",
		"gesv/50x20":             "65:1202b208410e7ccf",
		"ckpt-cholesky-abort/50": "25:0ffd8d0e6d72e759",
		"ckpt-lu-abort/64":       "29:1b7cf193bf3b3199",
		"ckpt-lu-abort/80x48":    "21:13c15e54f864b54a",
		"resume-cholesky/50@2":   "5:a99e667050742e20",
		"resume-lu/64@2":         "6:c5f1f19659ae6a7a",
		"resume-lu/80x48@2":      "2:72fa55377e82d5a2",
		"resilient-cholesky/50":  "42:2a4571f40d3dd3ff",
		"resilient-lu/50":        "74:e122d48c798b7b35",
		"qr/80x48":               "27:96a7f8a813c03d53",
		"qrtree/80x48":           "47:a1bebc21758d0193",
		"qr-fj/80x48":            "40:8dd7d33d81328b5e",
		"qr/50x50":               "31:faf01c4aeb61a46f",
		"qrtree/100x45":          "71:75780fc9d34b7701",
		"gels/80x48+B80x20":      "63:c6fb9b95a1b59118",
		"gelstree/80x48+B80x20":  "101:7fe318ffa181c1dd",
		// Checkpointing composed with ABFT and erasure: the snapshot of
		// each step follows its verification and commits.
		"ckpt-abft-cholesky/50":     "45:3d081c73e4b500a7",
		"ckpt-abft-lu/64":           "77:284c1154e98d1f0f",
		"resume-abft-cholesky/50@2": "13:495f1c23201f9d85",
		"chol-solve/50+B50x20":      "41:fe5b21664c40a905",
		"lu-solve/50+B50x20":        "41:1f4112f4b2d163e6",
		"lu-elim/80x48+B80x20":      "24:3a1f4dc4275cdba8",
		"qt/80x48+B80x20":           "24:15cb946413a8351e",
		"qt-tree/80x48+B80x20":      "42:479a7aa893c86ed7",
		// Rows recorded when the conversions became tasks of the walk.
		"run-posv/50x20":                  "93:05ea16ded366e217",
		"run-gesv/50x20":                  "97:82afe4f261fb49d5",
		"run-potri/50":                    "79:054adefd94967915",
		"run-gels/80x48+B80x20":           "98:f9df11c28c4b88e3",
		"run-gelstree/80x48+B80x20":       "136:9df6a24e9cafb420",
		"run-chol-solve/50+B50x20":        "57:ff0ba3fd5aa01f6c",
		"run-qt/80x48+B80x20":             "45:195d0aa289fec200",
		"run-invert/50":                   "43:7872e19a26e69693",
		"qr-deferred/80x48":               "42:c89d6b6caea10de0",
		"ckpt-cholesky-abort-deferred/50": "41:f044f6768ae3e2a5",
		"resilient-cholesky-deferred/50":  "42:2a4571f40d3dd3ff",
	}
	for _, c := range cases {
		rec := sched.NewModelRecorder()
		nm := &graphNamer{}
		c.run(rec, nm)
		got := graphDigest(rec.Graph(), nm)
		if w, ok := want[c.name]; !ok || got != w {
			t.Errorf("%s: graph digest %q, want %q", c.name, got, w)
		}
	}
}

// TestQRFactorBitsUnchanged pins the bits of the factored A (R and the
// Householder vectors) of the flat and tree QR on an 80×48 matrix with
// ragged edge tiles: a reordered kernel call or a changed kernel operand
// shows up here even where the task graph is unchanged.
func TestQRFactorBitsUnchanged(t *testing.T) {
	const m, n, nb = 80, 48, 16
	aD := matgen.Dense[float64](rand.New(rand.NewSource(80)), m, n)
	for _, c := range []struct {
		name   string
		factor func(sched.Scheduler, *tile.Matrix[float64])
		want   string
	}{
		{"qr", func(s sched.Scheduler, a *tile.Matrix[float64]) { core.QR(s, a) }, "04756f65e4e06dd5"},
		{"qrtree", func(s sched.Scheduler, a *tile.Matrix[float64]) { core.QRTree(s, a) }, "dd357a9c9601c9ab"},
	} {
		a := tile.FromColMajor(m, n, aD, m, nb)
		c.factor(sched.NewRecorder(), a)
		h := sha256.New()
		for _, x := range a.ToColMajor() {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%s: factor bits hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSolutionBitsUnchanged pins the bits of the solution X of the one-graph
// solvers on ragged tile grids (n = 50 and an 80×48 least-squares A at
// nb = 16, seven right-hand sides): a swapped operand or a wrong transpose
// in a right-hand-side kernel call shows up here even where the task graph
// is unchanged.
func TestSolutionBitsUnchanged(t *testing.T) {
	const nb, nrhs = 16, 7
	rng := rand.New(rand.NewSource(81))
	spd := matgen.DiagDomSPD[float64](rng, 50)
	sq := matgen.Dense[float64](rng, 50, 50)
	tall := matgen.Dense[float64](rng, 80, 48)
	b50 := matgen.Dense[float64](rng, 50, nrhs)
	b80 := matgen.Dense[float64](rng, 80, nrhs)
	for _, c := range []struct {
		name  string
		a, b  []float64
		m, n  int
		solve func(s sched.Scheduler, a, b *tile.Matrix[float64])
		want  string
	}{
		{"posv", spd, b50, 50, 50, func(s sched.Scheduler, a, b *tile.Matrix[float64]) { _ = core.Posv(s, a, b) }, "1c5986eddf391e8e"},
		{"gesv", sq, b50, 50, 50, func(s sched.Scheduler, a, b *tile.Matrix[float64]) { _, _ = core.Gesv(s, a, b) }, "9ff49f0a35abcec2"},
		{"gels", tall, b80, 80, 48, func(s sched.Scheduler, a, b *tile.Matrix[float64]) { core.Gels(s, a, b) }, "95347a91f02765b6"},
		{"gelstree", tall, b80, 80, 48, func(s sched.Scheduler, a, b *tile.Matrix[float64]) { _, _ = core.Factor(s, core.OpQRTree, a, b, false) }, "99850df46d224b0d"},
	} {
		a := tile.FromColMajor(c.m, c.n, c.a, c.m, nb)
		b := tile.FromColMajor(c.m, nrhs, c.b, c.m, nb)
		c.solve(sched.NewRecorder(), a, b)
		h := sha256.New()
		for _, x := range b.ToColMajor() {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%s: solution bits hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestInverseBitsUnchanged pins the bits of Potri's A⁻¹ (lower tiles) at
// n = 80, nb = 16: a reordered or changed kernel call in the inverse
// sweeps shows up here even where the task graph is unchanged.
func TestInverseBitsUnchanged(t *testing.T) {
	const n, nb = 80, 16
	a := tile.FromColMajor(n, n, matgen.DiagDomSPD[float64](rand.New(rand.NewSource(82)), n), n, nb)
	if err := core.Potri(sched.NewRecorder(), a); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, x := range a.ToColMajor() {
		binary.Write(h, binary.LittleEndian, math.Float64bits(x))
	}
	if got, want := hex.EncodeToString(h.Sum(nil)[:8]), "3437ae7567d13e73"; got != want {
		t.Errorf("potri: inverse bits hash %s, want %s", got, want)
	}
}
