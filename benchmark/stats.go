package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the figure is one outlier's latency, not a
// property of the system.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, ascending.
var tailLadder = []float64{0.50, 0.60, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count). It panics on an empty sample: every caller owns a fixed,
// non-empty operation list.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		panic("median of empty sample")
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because the
// driver judges run-to-run spread with that function.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// relSpread is the distance between the first and third quartile as a share
// of the median, the quantity the driver holds against a metric's bound.
func relSpread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("median is 0: relative spread undefined")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// tailPercentile returns the highest percentile of the ladder that leaves at
// least minBeyond of n samples beyond it.
func tailPercentile(n int) (float64, error) {
	best := -1.0
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			best = p
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%d samples support no tail percentile (need %d beyond the median)", n, minBeyond)
	}
	return best, nil
}

// percentile returns the p-quantile (nearest rank) of xs. Above the median
// it refuses a percentile the sample cannot support.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of empty sample")
	}
	if p > 0.5 && float64(n)*(1-p) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %.1f",
			100*p, minBeyond, n, float64(n)*(1-p))
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// timing formats a duration statistic with the sample count beside it.
func timing(label string, ms float64, n int) string {
	return fmt.Sprintf("%s %.3f ms (n=%d)", label, ms, n)
}

// shareAbove is the share of xs strictly above limit.
func shareAbove(xs []float64, limit float64) float64 {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// workerBusyNs sums the sched.worker.<i>.busy_ns counters of a metrics
// snapshot: the time every scheduler worker feeding that registry spent
// inside task bodies.
func workerBusyNs(counters map[string]int64) int64 {
	var busy int64
	for name, v := range counters {
		if strings.HasPrefix(name, "sched.worker.") && strings.HasSuffix(name, ".busy_ns") {
			busy += v
		}
	}
	return busy
}
