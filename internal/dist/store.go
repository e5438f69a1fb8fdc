package dist

import (
	"fmt"

	"exadla/internal/ft"
	"exadla/internal/tile"
)

// store is the coordinator's tile object store — the numpywren-style
// disaggregated half of the runtime. It is the single source of truth for
// tile data: every commit lands here before the task counts as done, so a
// worker dying after commit loses nothing and a worker dying before
// commit loses only a lease.
//
// On top of plain storage it keeps the ft.RowErasure XOR parity of every
// *finalized* tile (one the factorization will never write again). That
// enables write-back residency: with WriteBack on, a finalized tile's
// bytes may be dropped from the store — only the committing worker holds
// them — as long as at most one tile per tile row is dropped, because the
// parity plus the in-store peers reconstructs a single missing tile
// bit-exactly. When the worker holding a resident tile dies, the store
// reconstructs instead of re-running the task chain that produced it:
// recovery cost is one XOR pass, not a DAG suffix.
//
// Every tile also carries an at-rest checksum, the trailer of its ft frame:
// taken from the frame the worker sealed on commit, recomputed after local
// kernels, checked after reconstructions and against the very frame a Get
// serves, and re-verified by the background scrub. A mismatch is at-rest
// rot; a rotted *finalized* tile is repaired from the row parity (the same
// machinery as residency), while rot the parity cannot cover — an
// unfinalized tile, or a second fault in a row that already dropped a tile
// — fails the read loudly rather than letting silent corruption into the
// factor.
//
// The store is not internally locked; the coordinator serializes access
// under its own mutex.
type store struct {
	a   *tile.Matrix[float64]
	ers *ft.RowErasure
	// ver[i][j] counts accepted writes of tile (i,j). The DAG serializes
	// writers, so the version sequence — and hence the data each version
	// names — is deterministic; workers use versions for cache coherence.
	ver [][]int
	// crc[i][j] is the at-rest frame trailer of tile (i,j)'s current bytes.
	crc [][]uint64
	// scratch is the buffer sum encodes tile frames into.
	scratch []byte
	// dirty[i][j] latches a detected-but-not-yet-repaired rot, so one rotted
	// tile is counted once across repeated scrub passes.
	dirty [][]bool
	// resident[i][j] is the worker holding the only copy of a dropped
	// finalized tile, or -1 when the bytes are in the store.
	resident [][]int
	// residentInRow[i] counts dropped tiles in tile row i (kept ≤ 1).
	residentInRow []int
	writeBack     bool
	// scrubCur is the scrub's round-robin cursor (tile index, row-major).
	scrubCur int
	// onReconstruct, when non-nil, is called once per rebuilt tile (the
	// coordinator mirrors it into the dist.tiles_reconstructed counter).
	onReconstruct func()
	// onRotDetect/onRotRepair observe at-rest integrity events (nil-safe).
	onRotDetect func(i, j int)
	onRotRepair func(i, j int)
}

func newStore(a *tile.Matrix[float64], writeBack bool, onReconstruct func()) *store {
	s := &store{
		a:             a,
		ers:           ft.NewRowErasure(a, nil),
		ver:           make([][]int, a.MT),
		crc:           make([][]uint64, a.MT),
		dirty:         make([][]bool, a.MT),
		resident:      make([][]int, a.MT),
		residentInRow: make([]int, a.MT),
		writeBack:     writeBack,
		onReconstruct: onReconstruct,
	}
	for i := 0; i < a.MT; i++ {
		s.ver[i] = make([]int, a.NT)
		s.crc[i] = make([]uint64, a.NT)
		s.dirty[i] = make([]bool, a.NT)
		s.resident[i] = make([]int, a.NT)
		for j := 0; j < a.NT; j++ {
			s.resident[i][j] = -1
			s.crc[i][j] = s.sum(i, j)
		}
	}
	return s
}

// sum is the trailer of tile (i,j)'s frame as the tile stands, encoded
// into the store's scratch buffer.
func (s *store) sum(i, j int) uint64 {
	s.scratch = ft.TileFrame(s.a, i, j).Append(s.scratch[:0], s.a.Tile(i, j))
	return ft.FrameSum(s.scratch)
}

// get returns tile c's sealed frame and its version, reconstructing a
// dropped resident tile from parity first — whoever asks, its holder
// included: a worker fetches only what its cache lacks — and repairing
// detected rot where the parity allows.
func (s *store) get(c coord) ([]byte, int, error) {
	i, j := c[0], c[1]
	if s.resident[i][j] >= 0 {
		if err := s.reconstruct(c); err != nil {
			return nil, 0, err
		}
	}
	// Verify the frame itself against the at-rest trailer, so the frame
	// served is sealed with exactly the checksum the tile was committed with.
	f := ft.TileFrame(s.a, i, j)
	b := f.Append(nil, s.a.Tile(i, j))
	if ft.FrameSum(b) != s.crc[i][j] {
		if err := s.verifyLocked(c); err != nil {
			return nil, 0, err
		}
		b = f.Append(b[:0], s.a.Tile(i, j)) // repaired from parity
	}
	return b, s.ver[i][j], nil
}

// verifyLocked checks tile c's bytes against its at-rest CRC and repairs a
// mismatch from the row parity when possible. An unrepairable mismatch —
// no parity coverage (unfinalized tile) or a second fault in the row — is
// an error: the caller must not serve or snapshot rotted bytes.
func (s *store) verifyLocked(c coord) error {
	i, j := c[0], c[1]
	if s.sum(i, j) == s.crc[i][j] {
		s.dirty[i][j] = false
		return nil
	}
	if !s.dirty[i][j] {
		s.dirty[i][j] = true
		if s.onRotDetect != nil {
			s.onRotDetect(i, j)
		}
	}
	if !s.ers.Committed(i, j) {
		return fmt.Errorf("dist: tile (%d,%d) failed its at-rest CRC and has no parity coverage", i, j)
	}
	if s.residentInRow[i] > 0 {
		return fmt.Errorf("dist: tile (%d,%d) failed its at-rest CRC but row %d has a dropped peer (double fault)", i, j, i)
	}
	if err := s.ers.ReconstructTile(i, j); err != nil {
		return err
	}
	if s.sum(i, j) != s.crc[i][j] {
		return fmt.Errorf("dist: tile (%d,%d) reconstruction does not match its committed CRC (peer rot?)", i, j)
	}
	s.dirty[i][j] = false
	if s.onRotRepair != nil {
		s.onRotRepair(i, j)
	}
	if s.onReconstruct != nil {
		s.onReconstruct()
	}
	return nil
}

// scrub verifies up to max non-resident tiles from the round-robin cursor,
// repairing what the parity covers. Unrepairable rot is left latched (the
// read path fails loudly when the tile is actually needed); scrub itself
// never fails the job. Returns how many tiles it scanned.
func (s *store) scrub(max int) int {
	total := s.a.MT * s.a.NT
	if max > total {
		max = total
	}
	scanned := 0
	for k := 0; k < max; k++ {
		idx := (s.scrubCur + k) % total
		i, j := idx/s.a.NT, idx%s.a.NT
		if s.resident[i][j] >= 0 {
			continue // no bytes in-store to check
		}
		_ = s.verifyLocked(coord{i, j})
		scanned++
	}
	s.scrubCur = (s.scrubCur + max) % total
	return scanned
}

// put stores a committed tile — the payload of a frame the coordinator has
// already opened and matched to tile c, and the frame's trailer — bumps its
// version, and, when the committing task finalizes the tile, folds it into
// the row parity and possibly drops the bytes (write-back residency at the
// committing worker). Returns the new version.
func (s *store) put(c coord, payload []byte, crc uint64, worker int, finalized bool) int {
	i, j := c[0], c[1]
	t := s.a.Tile(i, j)
	ft.Unpack(t, payload)
	s.ver[i][j]++
	s.crc[i][j] = crc
	s.dirty[i][j] = false
	if s.resident[i][j] >= 0 {
		// The bytes are back (an unexpected re-write of a dropped tile);
		// clear residency rather than hold a stale claim.
		s.clearResident(c)
	}
	if finalized {
		s.ers.Commit(i, j)
		if s.writeBack && s.residentInRow[i] == 0 && worker >= 0 {
			// Drop the bytes; the worker keeps the only copy. One per row, so
			// a single-tile reconstruction is always possible from peers.
			s.a.SetTile(i, j, make([]float64, len(t)))
			s.resident[i][j] = worker
			s.residentInRow[i]++
		}
	}
	return s.ver[i][j]
}

// putLocal records a coordinator-local in-place write of tile c (the
// degradation ladder's fallback executes kernels directly on the store
// matrix; any resident operand must be reconstructed before the kernel).
// The at-rest CRC is recomputed from the freshly written bytes — local
// writes have no wire hop, so the chain starts here.
func (s *store) putLocal(c coord, finalized bool) int {
	s.ver[c[0]][c[1]]++
	s.crc[c[0]][c[1]] = s.sum(c[0], c[1])
	s.dirty[c[0]][c[1]] = false
	if finalized {
		s.ers.Commit(c[0], c[1])
	}
	return s.ver[c[0]][c[1]]
}

// reconstruct rebuilds a dropped tile in-store from the row parity and
// clears its residency. The rebuilt bytes are checked against the tile's
// committed CRC — a mismatch means a peer rotted while this tile's bytes
// were dropped, which single parity cannot untangle.
func (s *store) reconstruct(c coord) error {
	i, j := c[0], c[1]
	if err := s.ers.ReconstructTile(i, j); err != nil {
		return err
	}
	if s.sum(i, j) != s.crc[i][j] {
		return fmt.Errorf("dist: tile (%d,%d) reconstruction does not match its committed CRC (peer rot?)", i, j)
	}
	s.clearResident(c)
	if s.onReconstruct != nil {
		s.onReconstruct()
	}
	return nil
}

func (s *store) clearResident(c coord) {
	i, j := c[0], c[1]
	if s.resident[i][j] >= 0 {
		s.resident[i][j] = -1
		s.residentInRow[i]--
	}
}

// dropWorker reconstructs every tile resident on a dead or departed
// worker — called before the worker's cache ceases to exist (eviction,
// Bye). Returns how many tiles were rebuilt.
func (s *store) dropWorker(worker int) (int, error) {
	n := 0
	for i := 0; i < s.a.MT; i++ {
		for j := 0; j < s.a.NT; j++ {
			if s.resident[i][j] == worker {
				if err := s.reconstruct(coord{i, j}); err != nil {
					return n, err
				}
				n++
			}
		}
	}
	return n, nil
}

// materialize reconstructs every dropped tile, leaving the full matrix
// in-store — the final gather, and the precondition for a checkpoint
// snapshot (which serializes the store's bytes).
func (s *store) materialize() error {
	for i := 0; i < s.a.MT; i++ {
		for j := 0; j < s.a.NT; j++ {
			if s.resident[i][j] >= 0 {
				if err := s.reconstruct(coord{i, j}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// versions returns the current versions of the listed tiles.
func (s *store) versions(cs []coord) []int {
	out := make([]int, len(cs))
	for k, c := range cs {
		out[k] = s.ver[c[0]][c[1]]
	}
	return out
}
