package main

import (
	"fmt"
	"math/rand"
	"time"

	"exadla/internal/dist"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// stragglerProfile describes one misbehaving worker in a 3-worker fleet;
// the other two are healthy.
type stragglerProfile struct {
	name string
	opts dist.WorkerOptions
}

// runE13 measures what one straggler costs a fleet and what speculation
// buys back. For each profile — a 2× slow worker, a 10× slow worker, and
// a worker that hangs mid-lease with heartbeats still flowing — the same
// factorization runs twice: speculation off (the lease deadline is the
// only rescue) and speculation on (a lease running long against its
// kernel's duration history is twinned onto an idle worker, first valid
// commit wins). Every run is verified bitwise against a fault-free
// reference, so the makespan comparison never trades determinism away.
func runE13(quick bool) {
	// Fat tiles on purpose: a kernel must outlast the coordinator's
	// speculation tick for a slow copy of it to be caught mid-flight.
	n := pick(quick, 1024, 1536)
	nb := pick(quick, 256, 384)
	const seed = 2024

	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)
	want, _, err := e13Run(aD, n, nb, nil, false)
	if err != nil {
		fmt.Printf("reference run: %v\n", err)
		return
	}

	profiles := []stragglerProfile{
		{"none", dist.WorkerOptions{}},
		{"slow 2x", dist.WorkerOptions{SlowFactor: 2}},
		{"slow 10x", dist.WorkerOptions{SlowFactor: 10}},
		{"hang 1.2s", dist.WorkerOptions{HangAfter: 2, HangFor: 1200 * time.Millisecond}},
	}

	tb := newTable("straggler", "spec off s", "spec on s", "speedup", "twins", "won", "wasted", "bitwise")
	for _, p := range profiles {
		row := [2]struct {
			wall  float64
			stats dist.StatsSnapshot
			ok    bool
		}{}
		for i, spec := range []bool{false, true} {
			got, res, err := e13Run(aD, n, nb, &p.opts, spec)
			if err != nil {
				fmt.Printf("%s spec=%v: %v\n", p.name, spec, err)
				return
			}
			row[i].wall = res.wall
			row[i].stats = res.stats
			row[i].ok = firstBitDiff(got, want) < 0
		}
		okBoth := "yes"
		if !row[0].ok || !row[1].ok {
			okBoth = "NO"
		}
		tb.add(p.name, row[0].wall, row[1].wall, row[0].wall/row[1].wall,
			int(row[1].stats.SpecLaunched), int(row[1].stats.SpecWins),
			int(row[1].stats.SpecWasted), okBoth)
	}
	tb.print()
	fmt.Println("\nspeedup = makespan(spec off) / makespan(spec on); twins/won/wasted from the spec-on run.")
	fmt.Println("The hang profile is the pathological case: without speculation the job idles out the")
	fmt.Println("whole hang, with it an idle worker twins the stuck lease within a few duration samples.")
}

type e13Result struct {
	wall  float64
	stats dist.StatsSnapshot
}

// e13Run factors a copy of aD on a fresh coordinator. straggler == nil
// runs coordinator-local (the fault-free reference); otherwise three
// workers join, the first with the straggler profile. The reported wall
// time covers Run() only — a worker still sleeping through a hang after
// the job finishes is not part of the makespan.
func e13Run(aD []float64, n, nb int, straggler *dist.WorkerOptions, spec bool) ([]float64, e13Result, error) {
	buf := make([]float64, len(aD))
	copy(buf, aD)
	a := tile.FromColMajor(n, n, buf, n, nb)
	opt := dist.Options{
		Op: dist.OpCholesky, A: a,
		Lease:      3 * time.Second, // long: reaping must not mask the straggler
		DeadAfter:  60 * time.Millisecond,
		LocalDelay: 50 * time.Millisecond,
		Poll:       time.Millisecond,
		// Threshold on the median, not the tail: a persistent straggler
		// feeds its own slow commits into the distribution, and a q95
		// threshold would learn to excuse it.
		Speculate: spec, SpecMinSamples: 2, SpecQuantile: 0.5, SpecFactor: 3,
	}
	var workers []dist.WorkerOptions
	if straggler == nil {
		opt.LocalDelay = time.Millisecond
	} else {
		workers = []dist.WorkerOptions{*straggler, {}, {}}
	}
	c, err := startCluster(opt, workers)
	if err != nil {
		return nil, e13Result{}, err
	}
	// The makespan is the time to the last commit, not to Run's return:
	// Run lingers in a goodbye grace period that a worker still sleeping
	// through a hang would otherwise bill to the job.
	runErr := make(chan error, 1)
	t0 := time.Now()
	go func() { runErr <- c.Run() }()
	var wall float64
	waiting := true
	for waiting && wall == 0 {
		select {
		case err = <-runErr:
			waiting = false
		default:
			if c.Status().Done {
				wall = time.Since(t0).Seconds()
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if wall == 0 {
		wall = time.Since(t0).Seconds()
	}
	if waiting {
		err = <-runErr
	}
	c.workers.Wait()
	if err != nil {
		return nil, e13Result{}, err
	}
	return c.Result().ToColMajor(), e13Result{wall: wall, stats: c.Stats()}, nil
}
