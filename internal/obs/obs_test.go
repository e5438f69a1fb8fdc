package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"exadla/internal/metrics"
	"exadla/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := metrics.New()
	reg.Counter("sched.tasks_completed").Add(7)
	log := trace.NewLog()
	log.TaskSpan(trace.Event{ID: 0, Name: "potrf", Worker: 0, Attempt: 1, Start: 0, End: 1000})

	s, err := Start("127.0.0.1:0", Options{
		Registry: reg,
		Trace:    func() *trace.Log { return log },
		Health:   func() map[string]any { return map[string]any{"workers": 4} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "sched_tasks_completed 7") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	code, body = get(t, base+"/metrics?format=json")
	var snap map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &snap) != nil {
		t.Errorf("/metrics?format=json: code=%d body=%q", code, body)
	}

	code, body = get(t, base+"/trace")
	var events []map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &events) != nil {
		t.Fatalf("/trace: code=%d body=%q", code, body)
	}
	found := false
	for _, e := range events {
		if e["name"] == "potrf" {
			found = true
		}
	}
	if !found {
		t.Errorf("/trace missing the recorded span: %v", events)
	}

	code, body = get(t, base+"/healthz")
	var health map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &health) != nil {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	if health["status"] != "ok" || health["workers"].(float64) != 4 {
		t.Errorf("/healthz body: %v", health)
	}
	if _, ok := health["goroutines"]; !ok {
		t.Errorf("/healthz missing goroutines: %v", health)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
}

func TestServerClusterEndpoints(t *testing.T) {
	clusterLog := func() *trace.Log {
		l := trace.NewLog()
		l.Add(trace.Event{ID: 0, Name: "potrf", Worker: 0, Attempt: 1, Proc: 1,
			Start: 0, End: 1000, Outcome: trace.OutcomeOK})
		l.Add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1,
			Phase: trace.PhaseCompute, Start: 0, End: 1000})
		return l
	}
	s, err := Start("127.0.0.1:0", Options{
		Registry: metrics.New(),
		Trace:    clusterLog,
		Dist: func() any {
			return map[string]any{"workers_live": 3, "tasks_completed": 12}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// Chrome form: a JSON array with a process_name lane for worker 0.
	code, body := get(t, base+"/trace?scope=cluster")
	var events []map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &events) != nil {
		t.Fatalf("/trace?scope=cluster: code=%d body=%q", code, body)
	}
	body0 := body
	lane := false
	for _, e := range events {
		if e["name"] == "process_name" {
			lane = lane || e["args"].(map[string]any)["name"] == "worker 0"
		}
	}
	if !lane {
		t.Errorf("cluster trace has no worker 0 lane: %v", events)
	}

	// Native events form re-loads through trace.ReadJSON.
	code, body = get(t, base+"/trace?scope=cluster&format=events")
	if code != 200 {
		t.Fatalf("/trace?scope=cluster&format=events: code=%d", code)
	}
	back, err := trace.ReadJSON(strings.NewReader(body))
	if err != nil {
		t.Fatalf("native cluster trace does not re-load: %v", err)
	}
	if len(back.Events()) != 2 {
		t.Errorf("native cluster trace has %d events, want 2", len(back.Events()))
	}

	code, body = get(t, base+"/dist")
	var st map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &st) != nil {
		t.Fatalf("/dist: code=%d body=%q", code, body)
	}
	if st["workers_live"].(float64) != 3 || st["tasks_completed"].(float64) != 12 {
		t.Errorf("/dist body: %v", st)
	}

	// The scope parameter is ignored: /trace and /trace?scope=cluster serve
	// the same log. The endpoints are 404 on a server without a source.
	if code, plain := get(t, base+"/trace"); code != 200 || plain != body0 {
		t.Errorf("/trace: code=%d, body differs from /trace?scope=cluster", code)
	}
	bare, err := Start("127.0.0.1:0", Options{Registry: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code, _ := get(t, "http://"+bare.Addr()+"/trace?scope=cluster"); code != http.StatusNotFound {
		t.Errorf("/trace?scope=cluster without a source: code=%d, want 404", code)
	}
	if code, _ := get(t, "http://"+bare.Addr()+"/dist"); code != http.StatusNotFound {
		t.Errorf("/dist without a job: code=%d, want 404", code)
	}
}

// TestServerWorkerMirrorTrace pins that /trace serves a worker's span
// mirror whole: its fetch sub-phase and fault instants come back exactly
// as WriteChrome renders them, not just the whole-attempt slices.
func TestServerWorkerMirrorTrace(t *testing.T) {
	mirror := trace.NewLog()
	mirror.Add(trace.Event{ID: 3, Name: "gemm", Worker: 0, Attempt: 1, Proc: 1,
		Start: 0, End: 1000, Outcome: trace.OutcomeOK})
	mirror.Add(trace.Event{ID: 3, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseFetch,
		Start: 0, End: 250, Bytes: 800, Tile: [2]int{2, 1}, HasTile: true})
	mirror.Add(trace.Event{ID: -1, Worker: 0, Proc: 1, Phase: trace.PhasePartition,
		Start: 500, End: 500, Err: "enter"})
	mirror.Add(trace.Event{ID: 3, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCorrupt,
		Start: 750, End: 750, Err: "tile (2,1) checksum"})
	s, err := Start("127.0.0.1:0", Options{
		Registry: metrics.New(),
		Trace:    func() *trace.Log { return mirror },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, "http://"+s.Addr()+"/trace")
	var want strings.Builder
	if err := mirror.WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	if code != 200 || body != want.String() {
		t.Fatalf("/trace: code=%d body=%q, want %q", code, body, want.String())
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		if cat, _ := e["cat"].(string); cat == "phase" || cat == "fault" {
			seen[e["name"].(string)] = true
		}
	}
	for _, name := range []string{trace.PhaseFetch, trace.PhasePartition, trace.PhaseCorrupt} {
		if !seen[name] {
			t.Errorf("/trace dropped the worker mirror's %s event: %v", name, events)
		}
	}
}

func TestServerWithoutTrace(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{Registry: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, _ := get(t, "http://"+s.Addr()+"/trace")
	if code != http.StatusNotFound {
		t.Errorf("/trace without a log: code=%d, want 404", code)
	}
}

func TestServerBadAddr(t *testing.T) {
	if _, err := Start("256.0.0.1:bad", Options{}); err == nil {
		t.Error("Start on an invalid address returned no error")
	}
}

// TestCloseDrainsInFlightRequests pins the graceful-shutdown contract: a
// request already being served when Close is called completes instead of
// being truncated mid-body. The 1-second pprof CPU profile is a real slow
// in-flight request.
func TestCloseDrainsInFlightRequests(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{Registry: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		n      int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/profile?seconds=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, n: len(body), err: err}
	}()
	// Let the request reach the handler, then close while it is in flight.
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Errorf("Close returned after %v; it did not wait for the in-flight profile", waited)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request truncated by Close: %v", r.err)
	}
	if r.status != http.StatusOK || r.n == 0 {
		t.Errorf("in-flight request got status %d, %d bytes", r.status, r.n)
	}
}

// TestReadHeaderTimeoutClosesIdleClients pins the other half of the fix: a
// client that connects but never sends its headers is disconnected instead
// of holding the connection (and a graceful shutdown) hostage forever.
func TestReadHeaderTimeoutClosesIdleClients(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{
		Registry:          metrics.New(),
		ReadHeaderTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line and then go silent.
	if _, err := conn.Write([]byte("GET /healthz HTT")); err != nil {
		t.Fatal(err)
	}
	// The server may write a 408 before closing; what matters is that the
	// connection reaches EOF promptly instead of idling forever.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	body, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("expected EOF after the header timeout, got %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("connection survived %v; ReadHeaderTimeout not applied", waited)
	}
	// The server may write a 408/400 farewell before closing; any successful
	// response to an unfinished request would be a bug.
	if strings.Contains(string(body), "200 OK") {
		t.Errorf("server answered a request whose headers never arrived: %q", body)
	}
}
