package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// leBody encodes vs back to back as little-endian float64s, the raw wire
// form.
func leBody(vs ...[]float64) []byte {
	var out []byte
	for _, v := range vs {
		for _, x := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

// failAfter is a body that ends in err instead of io.EOF, as a server's
// body reader does when the client sends less than its Content-Length.
type failAfter struct {
	r   io.Reader
	err error
}

func (f failAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

func FuzzSpecFromRaw(f *testing.F) {
	f.Add("solve", "3037000500", "1", "", []byte{}, uint8(0)) // n·n overflows an int
	f.Add("solve", "2", "1", "", leBody(make([]float64, 6)), uint8(0))
	f.Add("factorize", "2", "", "", leBody([]float64{4, 1, 1, 3}), uint8(3))
	f.Add("lusolve", "2", "2", "fp", leBody([]float64{1, 2, 3, 4}), uint8(1))
	f.Add("solve", "1", "", "", leBody([]float64{2, 1}), uint8(2))
	f.Add("solve", "1000000", "", "fp", []byte{1, 2, 3}, uint8(3))
	f.Add("solve", "2", "1", "", leBody([]float64{4, 1, 1, 3, math.NaN(), 1}), uint8(0))
	f.Add("lusolve", "1", "", "", leBody([]float64{math.Inf(1), 2}), uint8(3))
	f.Add("lusolve", "2", "1", "fp", leBody([]float64{1, math.Inf(-1)}), uint8(0))
	f.Fuzz(func(t *testing.T, op, n, nrhs, fp string, body []byte, mode uint8) {
		q := url.Values{"op": {op}, "n": {n}}
		if nrhs != "" {
			q.Set("nrhs", nrhs)
		}
		if fp != "" {
			q.Set("fingerprint", fp)
		}
		r := httptest.NewRequest(http.MethodPost, "/jobs?"+q.Encode(), nil)
		// Each declared length as a server's body reader presents it.
		var rd io.Reader = bytes.NewReader(body)
		switch mode % 4 {
		case 0: // matching
			r.ContentLength = int64(len(body))
		case 1: // short: the reader stops at the declared length
			if len(body) > 0 {
				body = body[:len(body)-1]
				rd = bytes.NewReader(body)
			}
			r.ContentLength = int64(len(body))
		case 2: // long: the body ends before the declared length
			r.ContentLength = int64(len(body) + 1)
			rd = failAfter{rd, io.ErrUnexpectedEOF}
		case 3: // absent
			r.ContentLength = -1
		}
		r.Body = io.NopCloser(rd)
		spec, err := specFromRaw(r)
		if err != nil {
			if !errors.Is(err, errRaw) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := spec.check(); err != nil {
			t.Fatalf("accepted spec fails check: %v", err)
		}
		got := append(clone(spec.A), spec.B...)
		if 8*len(got) != len(body) {
			t.Fatalf("spec holds %d floats from a %d-byte body", len(got), len(body))
		}
		for i, v := range got {
			if math.Float64bits(v) != binary.LittleEndian.Uint64(body[8*i:]) {
				t.Fatalf("float %d is %#x, body says %#x", i, math.Float64bits(v), binary.LittleEndian.Uint64(body[8*i:]))
			}
		}
		if c := 8 * (cap(spec.A) + cap(spec.B)); c > max(8<<20, 2*len(body)) {
			t.Fatalf("decoder holds %d bytes for a %d-byte body", c, len(body))
		}
		// Submit's scan refuses exactly the bodies holding a NaN or ±Inf,
		// and names the first one.
		bad := -1
		for i, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = i
				break
			}
		}
		var nf *NonFiniteError
		switch ferr := spec.checkFinite(); {
		case bad < 0 && ferr != nil:
			t.Fatalf("finite operands refused: %v", ferr)
		case bad >= 0 && !errors.As(ferr, &nf):
			t.Fatalf("float %d is %v, yet the scan passes it", bad, got[bad])
		case bad >= 0:
			op, k := "A", bad
			if bad >= len(spec.A) {
				op, k = "B", bad-len(spec.A)
			}
			if nf.Operand != op || nf.Row != k%spec.N || nf.Col != k/spec.N {
				t.Fatalf("scan names %s(%d,%d), the first non-finite float is %s(%d,%d)", nf.Operand, nf.Row, nf.Col, op, k%spec.N, k/spec.N)
			}
		}
	})
}

// TestRawSubmitRejectsBadSizes: a raw body whose dimensions overflow, or
// whose length disagrees with them, gets a 400 with a JSON error and the
// connection stays up; a declared huge operator that never arrives costs
// bounded memory.
func TestRawSubmitRejectsBadSizes(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Lanes: 1, Workers: 1, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name, query string
		floats      int
		chunked     bool
	}{
		{"n·n overflows", "op=solve&n=3037000500&nrhs=1", 4, false},
		{"n·nrhs overflows", "op=solve&n=4&nrhs=4611686018427387904&fingerprint=x", 4, false},
		{"Content-Length short", "op=solve&n=4&nrhs=1", 19, false},
		{"Content-Length long", "op=factorize&n=2", 5, false},
		{"chunked body short", "op=solve&n=4", 19, true},
		{"chunked body long", "op=lufactorize&n=2", 5, true},
		{"huge n, nothing sent", "op=factorize&n=1000000", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader = bytes.NewReader(leBody(make([]float64, tc.floats)))
			if tc.chunked {
				body = io.MultiReader(body) // no length: sent chunked
			}
			req, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/jobs?wait=1&"+tc.query, body)
			req.Header.Set("Content-Type", "application/octet-stream")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("connection dropped: %v", err)
			}
			var reply struct {
				Error string `json:"error"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			runtime.ReadMemStats(&after)
			if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.HasPrefix(reply.Error, "raw submit: ") {
				t.Fatalf("code %d, error %q (%v)", resp.StatusCode, reply.Error, derr)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 24<<20 {
				t.Errorf("rejecting it allocated %d MB", d>>20)
			}
		})
	}
}

// TestFinishedJobsReleaseOperands: a terminal job holds its status and its
// result, not its operands, on the lane and the batched path, submitted in
// process and as raw HTTP. The results are the bits the same kernels give
// outside the server, and 64 cold order-256 solves leave the heap flat
// (each held half a megabyte when jobs kept spec.A). Status is polled
// throughout, so -race sees the lanes drop operands while it reads.
func TestFinishedJobsReleaseOperands(t *testing.T) {
	const n, nb, solves = 256, 64, 64
	rng := rand.New(rand.NewSource(34))
	a0 := matgen.DiagDomSPD[float64](rng, n)
	b := matgen.Dense[float64](rng, n, 1)
	operator := func(k int) []float64 { // a distinct operator per request
		a := clone(a0)
		a[k%n*(n+1)] += float64(k + 1)
		return a
	}
	rt := sched.New(2)
	defer rt.Shutdown()
	for _, path := range []struct {
		name   string
		cutoff int
	}{{"lane", -1}, {"batched", n}} {
		want := func(k int) []float64 {
			a := operator(k)
			if path.cutoff < 0 {
				tb := tile.FromColMajor(n, 1, b, n, nb)
				if _, err := core.Factor(rt, core.OpCholesky, tile.FromColMajor(n, n, a, n, nb), tb, false); err != nil {
					t.Fatal(err)
				}
				return tb.ToColMajor()
			}
			x := clone(b)
			if err := lapack.Potf2(blas.Lower, n, a, n); err != nil {
				t.Fatal(err)
			}
			lapack.Potrs(blas.Lower, n, 1, a, n, x, n)
			return x
		}
		for _, viaHTTP := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/http=%v", path.name, viaHTTP), func(t *testing.T) {
				s, err := New(Config{Addr: "127.0.0.1:0", Lanes: 1, Workers: 2, TileSize: nb,
					CacheEntries: -1, SmallCutoff: path.cutoff})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				solve := func(k int) []float64 {
					var id string
					if viaHTTP {
						req, _ := http.NewRequest(http.MethodPost, fmt.Sprintf("http://%s/jobs?op=solve&n=%d", s.Addr(), n),
							bytes.NewReader(leBody(operator(k), b)))
						req.Header.Set("Content-Type", "application/octet-stream")
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Fatal(err)
						}
						var acc struct {
							ID string `json:"id"`
						}
						_ = json.NewDecoder(resp.Body).Decode(&acc)
						resp.Body.Close()
						if resp.StatusCode != http.StatusAccepted {
							t.Fatalf("raw submit: code %d", resp.StatusCode)
						}
						id = acc.ID
					} else {
						id = mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, A: operator(k), B: clone(b)})
					}
					stop := make(chan struct{})
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
								if st, _ := s.Status(id); st.N != n || st.Op != OpSolveSPD {
									t.Errorf("status mid-run: %+v", st)
									return
								}
							}
						}
					}()
					st := waitDone(t, s, id)
					close(stop)
					wg.Wait()
					if st.Batched != (path.cutoff > 0) {
						t.Fatalf("batched=%v on the %s path", st.Batched, path.name)
					}
					s.mu.Lock()
					j := s.jobs[id]
					s.mu.Unlock()
					if j.spec.A != nil || j.spec.B != nil {
						t.Fatalf("terminal job holds A (%d floats) and B (%d floats)", len(j.spec.A), len(j.spec.B))
					}
					x, err := s.Result(id)
					if err != nil {
						t.Fatal(err)
					}
					return x
				}
				for k := 0; k < 4; k++ {
					x, ref := solve(k), want(k)
					for i := range ref {
						if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("solve %d: x[%d] = %v, the kernels give %v", k, i, x[i], ref[i])
						}
					}
				}
				heap := func() uint64 {
					var ms runtime.MemStats
					runtime.GC()
					runtime.GC()
					runtime.ReadMemStats(&ms)
					return ms.HeapAlloc
				}
				before := heap()
				for k := 4; k < 4+solves; k++ {
					solve(k)
				}
				if grew := int64(heap()) - int64(before); grew > 4<<20 {
					t.Errorf("heap grew %.1f MB over %d cold solves", float64(grew)/(1<<20), solves)
				}
			})
		}
	}
}
