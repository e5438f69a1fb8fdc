// Package dist is the distributed runtime: a Coordinator (coordinator.go)
// owns a tile program's DAG, the tile store and the lease table, and
// workers (RunWorker) pull leases over net/rpc, fetch operands, run the
// Steps' kernels with core.Apply and commit the results back. Dead or
// hung workers are reaped and their tiles rebuilt from parity, and the
// job checkpoints and resumes bitwise; coordinator.go lists the failure
// rules.
//
// This file is the runtime's communication model: tiles are placed on a
// P×Q process grid (BlockCyclic, 2D block-cyclic as in ScaLAPACK), each
// task of a recorded graph runs where its output tile lives ("owner
// computes"), and Count replays the graph, counting every remote operand
// as one message of one tile's worth of words. It is the quantitative
// backing for the keynote's central rule — data movement, not flops, is
// the cost at scale — and what the runtime's measured bytes are held to.
package dist

import (
	"fmt"

	"exadla/internal/ft"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// Placement maps a data handle to its owning process and its size in
// words. Handles it does not recognize (zero size) are treated as
// process-local metadata and never counted.
type Placement func(h sched.Handle) (proc int, words int)

// CommStats aggregates the communication of one replay.
type CommStats struct {
	// Processes is the grid size used.
	Processes int
	// Messages is the number of remote tile fetches.
	Messages int
	// Words is the total words moved.
	Words int
	// LocalTasks and RemoteTasks split tasks by whether all operands were
	// already resident.
	LocalTasks, RemoteTasks int
	// ByKernel maps kernel name to words moved fetching its operands.
	ByKernel map[string]int
}

func (s CommStats) String() string {
	return fmt.Sprintf("P=%d: %d messages, %d words (%d/%d tasks needed remote data)",
		s.Processes, s.Messages, s.Words, s.RemoteTasks, s.LocalTasks+s.RemoteTasks)
}

// BlockCyclic returns the ScaLAPACK-style 2D block-cyclic placement of a
// tiled matrix's handles on a p×q process grid: tile (i, j) lives on
// process (i mod p)·q + (j mod q), and moving it costs its element count.
// Handles from other matrices map to process 0 with zero size; compose
// placements with Merge for multi-matrix algorithms.
func BlockCyclic[F interface{ ~float32 | ~float64 }](a *tile.Matrix[F], p, q int) Placement {
	return func(h sched.Handle) (int, int) {
		th, ok := h.(tile.Handle)
		if !ok {
			return 0, 0
		}
		i, j := th.Coords()
		if !ownsHandle(a, h) {
			return 0, 0
		}
		return cyclicSlot(i, j, p, q), a.TileRows(i) * a.TileCols(j)
	}
}

// cyclicSlot is the block-cyclic home of tile (i, j) on a p×q process
// grid: process (i mod p)·q + (j mod q). BlockCyclic, ParityPlacement, the
// coordinator's strict task homes and its scatter lists all place by it,
// so live-run traffic and the Count model agree by construction.
func cyclicSlot(i, j, p, q int) int { return (i%p)*q + j%q }

// ownsHandle reports whether h names a tile of a (handles embed matrix
// identity, so comparing against a freshly built handle suffices).
func ownsHandle[F interface{ ~float32 | ~float64 }](a *tile.Matrix[F], h sched.Handle) bool {
	th := h.(tile.Handle)
	i, j := th.Coords()
	if i < 0 || i >= a.MT || j < 0 || j >= a.NT {
		return false
	}
	return a.Handle(i, j) == th
}

// ParityPlacement places the erasure parity tiles of a matrix's row
// groups (ft.ErasureRowHandle) as FT-ScaLAPACK places its checksum
// column: the parity of tile row i lives where tile (i, nt) would — one
// extra block-cyclic column appended to the nt-column matrix — and
// moving it costs the parity tile's full word count. Committing a tile
// to its parity group from another process therefore ships the whole
// tile to the checksum column, which is exactly the erasure scheme's
// communication bill. It recognizes every ErasureRowHandle; in a
// multi-matrix replay, list the placement whose matrix carries erasure
// first in Merge.
func ParityPlacement(nt, p, q int) Placement {
	return func(h sched.Handle) (int, int) {
		eh, ok := h.(ft.ErasureRowHandle)
		if !ok {
			return 0, 0
		}
		return cyclicSlot(eh.Row(), nt, p, q), eh.Words()
	}
}

// Merge composes placements: the first one reporting a nonzero size wins.
func Merge(ps ...Placement) Placement {
	return func(h sched.Handle) (int, int) {
		for _, p := range ps {
			if proc, words := p(h); words > 0 {
				return proc, words
			}
		}
		return 0, 0
	}
}

// remote applies the owner-computes rule to one task: it runs on the home
// of its first written handle, and every other operand homed elsewhere —
// a read fetched, a further write shipped back — costs one message of that
// operand's words. It returns the task's messages and words.
func remote(n *sched.GraphNode, place Placement) (msgs, words int) {
	proc := 0
	if len(n.Writes) > 0 {
		proc, _ = place(n.Writes[0]) // the task's own output is local by construction
	}
	count := func(hs []sched.Handle) {
		for _, h := range hs {
			if home, w := place(h); w > 0 && home != proc {
				msgs++
				words += w
			}
		}
	}
	count(n.Reads)
	if len(n.Writes) > 1 {
		count(n.Writes[1:])
	}
	return msgs, words
}

// CommDepth returns the number of remote transfers on the graph's longest
// dependence chain — the latency-bound cost of the algorithm (how many
// message rounds must happen in sequence, no matter how much bandwidth is
// available). This is the metric communication-avoiding algorithms
// minimize: a flat panel chain pays one round per process it touches, a
// reduction tree pays one per level.
func CommDepth(g *sched.Graph, place Placement) int {
	depth := make([]int, len(g.Nodes))
	best := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		d := 0
		for _, dep := range n.Deps {
			d = max(d, depth[dep])
		}
		if !n.Barrier {
			msgs, _ := remote(n, place)
			d += msgs
		}
		depth[i] = d
		best = max(best, d)
	}
	return best
}

// Count replays a recorded graph under the placement with the static
// owner-computes rule (see remote), skipping barriers. Tasks are charged
// per access — each task fetches fresh operands, since in a factorization
// almost every operand was rewritten since any earlier fetch.
func Count(g *sched.Graph, processes int, place Placement) CommStats {
	stats := CommStats{Processes: processes, ByKernel: map[string]int{}}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Barrier {
			continue
		}
		msgs, words := remote(n, place)
		if msgs == 0 {
			stats.LocalTasks++
			continue
		}
		stats.RemoteTasks++
		stats.Messages += msgs
		stats.Words += words
		stats.ByKernel[n.Name] += words
	}
	return stats
}
