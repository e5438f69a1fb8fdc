package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// One connection, one stall: the requests that were due during the stall
// were sent late, and because latency runs from the due time the stall must
// show in their latencies, shrinking by one interval per request.
func TestStallShowsInQueuedRequests(t *testing.T) {
	const (
		stallAt  = 2
		stall    = 200 * time.Millisecond
		interval = 20 * time.Millisecond
		count    = 16
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	ops := make([]schedOp, count)
	for i := range ops {
		ops[i] = schedOp{due: time.Duration(i) * interval, fg: true, kind: "get",
			send: func(cl *http.Client, _ int, done func(error)) {
				resp, err := cl.Get(srv.URL)
				if err == nil {
					_, err = drain(resp, http.StatusNoContent)
				}
				done(err)
			}}
	}
	out, wall := runOpenLoop(ops, 1)
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
	}
	if wall < stall {
		t.Errorf("wall %v is shorter than the stall", wall)
	}
	if lat := out[stallAt].latency(ops[stallAt].due); lat < stall {
		t.Errorf("the stalled request itself took %v", lat)
	}
	// The request after the stalled one was due one interval into the
	// stall and could not be sent until it ended.
	next := stallAt + 1
	if late := out[next].late(ops[next].due); late < stall-2*interval {
		t.Errorf("request %d was sent %v late; the stall should have held it back ~%v", next, late, stall-interval)
	}
	if lat := out[next].latency(ops[next].due); lat < stall-2*interval {
		t.Errorf("request %d: latency %v hides the stall it queued behind", next, lat)
	}
	// The backlog drains: each later request waited one interval less.
	if a, b := out[next].latency(ops[next].due), out[next+3].latency(ops[next+3].due); b >= a {
		t.Errorf("latency did not fall as the backlog drained: %v then %v", a, b)
	}
	// Requests before the stall, and those due after the backlog has
	// drained, are on time.
	for _, i := range []int{0, 1, count - 1} {
		if lat := out[i].latency(ops[i].due); lat > stall/4 {
			t.Errorf("request %d, outside the stall, took %v", i, lat)
		}
	}
}
