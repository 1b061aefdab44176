package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMeanMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Mean(xs) != 3 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Fatalf("median = %v", Median(xs))
	}
	if Percentile(xs, 100) != 5 || Percentile(xs, 0) != 1 {
		t.Fatal("percentile extremes wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := Percentile(xs, 90); got != 90 {
		t.Fatalf("p90 = %v, want 90", got)
	}
	if got := Percentile(xs, 99); got != 100 {
		t.Fatalf("p99 = %v, want 100", got)
	}
}

func TestFitPowerExact(t *testing.T) {
	// y = 3 x^2
	var xs, ys []float64
	for x := 1.0; x <= 64; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 3*x*x)
	}
	exp, scale := FitPower(xs, ys)
	if math.Abs(exp-2) > 1e-9 || math.Abs(scale-3) > 1e-9 {
		t.Fatalf("fit = (%v, %v), want (2, 3)", exp, scale)
	}
}

func TestFitPowerHalf(t *testing.T) {
	// y = sqrt(x) with noise-free samples.
	var xs, ys []float64
	for x := 4.0; x <= 1<<20; x *= 4 {
		xs = append(xs, x)
		ys = append(ys, math.Sqrt(x))
	}
	exp, _ := FitPower(xs, ys)
	if math.Abs(exp-0.5) > 1e-9 {
		t.Fatalf("exponent = %v, want 0.5", exp)
	}
}

func TestFitPowerDegenerate(t *testing.T) {
	if e, s := FitPower([]float64{1}, []float64{2}); e != 0 || s != 0 {
		t.Fatal("single point should not fit")
	}
	if e, s := FitPower([]float64{-1, -2}, []float64{1, 2}); e != 0 || s != 0 {
		t.Fatal("non-positive xs should not fit")
	}
}

func TestRatioSpread(t *testing.T) {
	if got := RatioSpread([]float64{2, 4, 3}); got != 2 {
		t.Fatalf("spread = %v, want 2", got)
	}
	if got := RatioSpread(nil); got != 0 {
		t.Fatal("empty spread not 0")
	}
}

func TestMax(t *testing.T) {
	if Max([]float64{1, 9, 4}) != 9 || Max(nil) != 0 {
		t.Fatal("Max wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E1", "n", "time", "ratio")
	tb.Row(1024, 3.5, "ok")
	tb.Row(2048, 7.25, "ok")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"## E1", "n", "time", "ratio", "1024", "3.500", "2048"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}
