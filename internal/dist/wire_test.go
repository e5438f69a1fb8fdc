package dist

// White-box tests of the wire protocol's guards: hand-built RPCs a correct
// worker never sends (malformed commits, a foreign protocol version) and a
// link that corrupts every commit. Each must be refused with an error while
// the coordinator stays up and the job still finishes bitwise.

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

const wireSeed, wireN, wireNB = 51, 64, 16

func wireMatrix() *tile.Matrix[float64] {
	rng := rand.New(rand.NewSource(wireSeed))
	return tile.FromColMajor(wireN, wireN, matgen.DiagDomSPD[float64](rng, wireN), wireN, wireNB)
}

// startWireJob starts a Cholesky coordinator on wireMatrix and its Run loop.
func startWireJob(t *testing.T) (*Coordinator, <-chan error) {
	t.Helper()
	c, err := NewCoordinator("127.0.0.1:0", Options{
		Op: OpCholesky, A: wireMatrix(),
		Lease: 300 * time.Millisecond, DeadAfter: 200 * time.Millisecond,
		LocalDelay: 5 * time.Second, Poll: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Run() }()
	return c, done
}

// finishWireJob lets a well-behaved worker complete the job and checks the
// factor against the in-process scheduler's, bit for bit.
func finishWireJob(t *testing.T, c *Coordinator, done <-chan error) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(c.Addr(), WorkerOptions{}); err != nil {
			t.Errorf("healthy worker: %v", err)
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	want := wireMatrix()
	r := sched.New(2)
	if err := core.Cholesky(r, want); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()
	got, ref := c.Result().ToColMajor(), want.ToColMajor()
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("element %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
		}
	}
}

// TestCommitRefusesMalformedPayloads leases the root task over a raw RPC
// connection and commits frames that name the wrong tiles or carry the
// wrong shape or byte count, every one under a valid lease token and a
// valid seal. Each must be refused with an error before a byte lands. A
// frame whose header was flipped after sealing is BadPayload instead: the
// worker resends it.
func TestCommitRefusesMalformedPayloads(t *testing.T) {
	c, done := startWireJob(t)
	cl, err := rpc.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var reg RegisterReply
	if err := cl.Call("Coord.Register", &RegisterArgs{Version: protocolVersion}, &reg); err != nil {
		t.Fatal(err)
	}
	var lr LeaseReply
	if err := cl.Call("Coord.Lease", &LeaseArgs{Worker: reg.Worker}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Task == nil {
		t.Fatalf("no task leased: %+v", lr)
	}
	_, writes := lr.Task.Accesses()
	wi, wj := writes[0][0], writes[0][1]
	frame := func(kind ft.FrameKind, i, j, rows, cols int) []byte {
		return ft.Frame{Kind: kind, I: i, J: j, Rows: rows, Cols: cols}.Append(nil, make([]float64, rows*cols))
	}
	tileFrame := func(i, j int) []byte { return frame(ft.FrameTile, i, j, wireNB, wireNB) }
	full := tileFrame(wi, wj)
	// reseal seals a header and payload whose lengths disagree.
	reseal := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint64(body, ft.CRC64Bytes(body))
	}
	body := full[:len(full)-8]
	mt := wireN / wireNB
	for _, tc := range []struct {
		name  string
		tiles [][]byte
	}{
		{"frame naming a tile outside the write set", [][]byte{tileFrame(wi+1, wj)}},
		{"row index MT (aliases the next column)", [][]byte{tileFrame(mt, 0)}},
		{"negative coordinate", [][]byte{tileFrame(-1, 0)}},
		{"frame of another kind", [][]byte{frame(ft.FrameCheckpoint, wi, wj, wireNB, wireNB)}},
		{"wrong shape", [][]byte{frame(ft.FrameTile, wi, wj, wireNB, wireNB-1)}},
		{"short payload", [][]byte{reseal(append([]byte(nil), body[:len(body)-8]...))}},
		{"long payload", [][]byte{reseal(append(append([]byte(nil), body...), 0, 0, 0, 0, 0, 0, 0, 0))}},
		{"truncated frame", [][]byte{full[:10]}},
		{"duplicate tile", [][]byte{full, full}},
		{"no tiles", nil},
	} {
		var rep CommitReply
		err := cl.Call("Coord.Commit", &CommitArgs{Worker: reg.Worker, Task: lr.Task.ID, Token: lr.Token, Tiles: tc.tiles}, &rep)
		if err == nil {
			t.Errorf("%s: commit accepted: %+v", tc.name, rep)
		}
	}
	// The seal covers the header: a tile row flipped in flight is a corrupt
	// payload, not a write to another tile.
	flipped := append([]byte(nil), full...)
	flipped[4] ^= 1
	var rep CommitReply
	if err := cl.Call("Coord.Commit", &CommitArgs{Worker: reg.Worker, Task: lr.Task.ID, Token: lr.Token, Tiles: [][]byte{flipped}}, &rep); err != nil || !rep.BadPayload {
		t.Errorf("flipped header: err %v, reply %+v, want BadPayload", err, rep)
	}
	// Still up, still leased, nothing applied.
	var hb HeartbeatReply
	if err := cl.Call("Coord.Heartbeat", &HeartbeatArgs{Worker: reg.Worker}, &hb); err != nil || hb.Evicted {
		t.Fatalf("coordinator after malformed commits: err %v, evicted %v", err, hb.Evicted)
	}
	if s := c.Stats(); s.TasksCompleted != 0 || s.CorruptCommits != 1 {
		t.Fatalf("want no task completed and one corrupt commit: %+v", s)
	}
	cl.Close() // silence: the lease is reaped and re-run
	finishWireJob(t, c, done)
}

// TestRegisterRefusesOtherProtocolVersion: a worker of another build is
// refused at Register with ErrProtocolVersion — at once, not after the
// retry budget — and never joins the fleet.
func TestRegisterRefusesOtherProtocolVersion(t *testing.T) {
	c, done := startWireJob(t)
	cl, err := dial(c.Addr(), NetChaos{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 is the previous protocol, whose spans had their own wire type.
	for _, v := range []int{0, 2, protocolVersion + 1, -1} {
		var rep RegisterReply
		err := cl.call("Register", &RegisterArgs{Version: v}, &rep)
		if !errors.Is(err, ErrProtocolVersion) {
			t.Errorf("version %d: got %v, want ErrProtocolVersion", v, err)
		}
	}
	if n := cl.takeRetries(); n != 0 {
		t.Errorf("a version refusal was retried %d times", n)
	}
	cl.close()
	if s := c.Stats(); s.WorkersJoined != 0 {
		t.Fatalf("a refused worker joined: %+v", s)
	}
	finishWireJob(t, c, done)
}

// TestCommitResendBounded: a worker whose every commit is corrupted in
// flight gives up with ErrPayloadCorrupt after defaultRPCAttempts refused
// sends, instead of resending forever; the job finishes elsewhere.
func TestCommitResendBounded(t *testing.T) {
	c, done := startWireJob(t)
	cl, err := dial(c.Addr(), NetChaos{Corrupt: 1, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	w, err := register(cl, newSpanShipper(nil), &WorkerOptions{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseReply
	if err := cl.call("Lease", &LeaseArgs{Worker: w.id}, &lr); err != nil || lr.Task == nil {
		t.Fatalf("lease: %v, %+v", err, lr)
	}
	// Fill the cache with the (still untouched) input so the task runs
	// without a fetch: only its commit crosses the corrupting link.
	in := wireMatrix()
	reads, writes := lr.Task.Accesses()
	for k, op := range append(reads, writes...) {
		copy(w.a.Tile(op[0], op[1]), in.Tile(op[0], op[1]))
		w.ver[op] = lr.Vers[k]
	}
	err = w.execute(lr.Task, lr.Token, lr.Vers, lr.Attempt)
	w.stopHeartbeat()
	cl.close()
	if !errors.Is(err, ErrPayloadCorrupt) {
		t.Fatalf("execute over a corrupting link: %v, want ErrPayloadCorrupt", err)
	}
	if s := c.Stats(); s.CorruptCommits != defaultRPCAttempts || s.TasksCompleted != 0 {
		t.Fatalf("want %d refused commits and none applied: %+v", defaultRPCAttempts, s)
	}
	finishWireJob(t, c, done)
}
