package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// schedOp is one request of an open-loop schedule. The whole schedule is
// built from the seed before the clock starts.
type schedOp struct {
	due  time.Duration // offset from the start of the run
	fg   bool          // foreground: latency is sampled
	kind string
	// send performs the operation's HTTP exchange on the sender's
	// connection. It calls done exactly once when the operation is complete,
	// which for an asynchronous job is later and from another goroutine;
	// send itself returns as soon as the connection is free again.
	send func(cl *http.Client, sender int, done func(error))
}

// opOutcome is what the generator observed for one scheduled operation, as
// offsets from the start of the run.
type opOutcome struct {
	started  time.Duration // when a sender picked it up (≥ due)
	finished time.Duration
	err      error
}

// latency runs from when the operation was due, not from when it was sent,
// so a stall charges every request that queued behind it.
func (o opOutcome) latency(due time.Duration) time.Duration { return o.finished - due }

// late is how far behind schedule the generator itself ran.
func (o opOutcome) late(due time.Duration) time.Duration { return o.started - due }

// runOpenLoop plays ops (sorted by due time) with the given number of sender
// goroutines, one keep-alive connection each. Senders take operations in due
// order and never skip one: a sender that falls behind sends late, and the
// lateness shows in the latency. It returns when every operation is
// complete, with the time from the first due operation to the last
// completion.
func runOpenLoop(ops []schedOp, senders int) ([]opOutcome, time.Duration) {
	out := make([]opOutcome, len(ops))
	var next atomic.Int64
	var pending sync.WaitGroup // operations not yet complete
	pending.Add(len(ops))
	var sending sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		sending.Add(1)
		go func(sender int) {
			defer sending.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if d := ops[i].due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				out[i].started = time.Since(t0)
				var once sync.Once
				ops[i].send(cl, sender, func(err error) {
					once.Do(func() {
						out[i].finished = time.Since(t0)
						out[i].err = err
						pending.Done()
					})
				})
			}
		}(s)
	}
	sending.Wait()
	pending.Wait()
	var wall time.Duration
	for _, o := range out {
		if o.finished > wall {
			wall = o.finished
		}
	}
	return out, wall
}

// drain reads a response to the end and closes it, so the connection goes
// back to the sender's pool, and reports a status other than want as an
// error carrying the body.
func drain(resp *http.Response, want int) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to lose
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("HTTP %d (want %d): %.200s", resp.StatusCode, want, body)
	}
	return body, nil
}
