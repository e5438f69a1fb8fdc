package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: nothing may rely on order
	}
	return xs
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := median(seq(10)); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v (%v), want 2.75 5.5 8.25", q1, q2, q3, err)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3, err = quartiles([]float64{16, 1, 8, 2, 4})
	if err != nil || q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v (%v), want 1.5 4 12", q1, q2, q3, err)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	spread, err := relSpread(seq(10))
	if err != nil || math.Abs(spread-1) > 1e-12 {
		t.Errorf("relSpread of 1..10 = %v (%v), want 1", spread, err)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 0.50}, {70, 0.85}, {100, 0.90}, {160, 0.90}, {250, 0.95}, {2400, 0.99}} {
		got, err := tailPercentile(c.n)
		if err != nil || got != c.want {
			t.Errorf("tailPercentile(%d) = %v (%v), want %v", c.n, got, err, c.want)
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("19 samples support no tail: want an error")
	}
}

func TestPercentileRefusesWhatTheSampleCannotSupport(t *testing.T) {
	xs := seq(100)
	if got, err := percentile(xs, 0.90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v (%v), want 90", got, err)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples leaves 1 beyond: want a refusal")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing: want an error")
	}
	if s := timing("op p50", 1.5, 42); !strings.Contains(s, "n=42") {
		t.Errorf("timing %q does not show the sample count", s)
	}
}
