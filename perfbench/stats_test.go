package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	d := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {0.001, 1},
	} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{2000, 95, 1900},              // p95 leaves 100 beyond
		{200, 95, 190},                // p95 leaves exactly 10 beyond
		{199, 100 * 189.0 / 199, 189}, // p95 would leave 9: step down to rank n-10
		{100, 90, 90},
		{20, 50, 10},
		{11, 100.0 / 11, 1},
		{10, 100, 10}, // too few samples: the maximum
		{1, 100, 1},
	} {
		p, v := tail(seq(c.n))
		if math.Abs(p-c.wantP) > 1e-9 || v != c.wantV {
			t.Errorf("tail(1..%d) = p%v %v, want p%v %v", c.n, p, v, c.wantP, c.wantV)
		}
		if c.n > minBeyond {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("tail(1..%d) leaves %d samples beyond, want ≥ %d", c.n, beyond, minBeyond)
			}
		}
	}
	if p, v := tail(nil); p != 0 || v != 0 {
		t.Errorf("tail(nil) = %v %v, want 0 0", p, v)
	}
}

// The expected values are statistics.quantiles(d, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		d    []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1.5, 2.25, 10, 4, 7, 0.5, 3.3}, [3]float64{1.5, 3.3, 7}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3 := quartiles(c.d)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.d, got, c.want)
				break
			}
		}
	}
}

func TestQuartilesDoNotReorderInput(t *testing.T) {
	d := []float64{3, 1, 2}
	quartiles(d)
	if d[0] != 3 || d[1] != 1 || d[2] != 2 {
		t.Errorf("quartiles reordered its input: %v", d)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	// (8.25 - 2.75) / 5.5
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread(zeros) = %v, want 0", got)
	}
}

func TestLatencySummaryCountsSamples(t *testing.T) {
	var l latencies
	for i := 2000; i >= 1; i-- {
		l.add(msDur(float64(i)))
	}
	p50, tp, tv, n := l.summary()
	if n != 2000 || p50 != 1000 || tp != 95 || tv != 1900 {
		t.Errorf("summary = p50 %v tail p%v %v n %d, want 1000, p95 1900, 2000", p50, tp, tv, n)
	}
	if !sort.Float64sAreSorted(l) {
		t.Error("summary left samples unsorted")
	}
}

func TestRatioOfIdleLayerIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}
