package stats

import (
	"math"
	"testing"
)

func TestNewRatioInterval(t *testing.T) {
	if iv := NewRatioInterval(nil, nil); iv != (Interval{}) {
		t.Errorf("empty input: %+v", iv)
	}
	if iv := NewRatioInterval([]float64{1, 2}, []float64{1}); iv != (Interval{}) {
		t.Errorf("length mismatch: %+v", iv)
	}
	if iv := NewRatioInterval([]float64{1, 2}, []float64{0, 0}); iv.Mean != 0 || iv.N != 2 {
		t.Errorf("zero denominator: %+v", iv)
	}
	// Pooled ratio, not mean of ratios: (10+30)/(10+10) = 2, while the
	// per-sample ratios average to (1+3)/2 = 2 here but differ below.
	iv := NewRatioInterval([]float64{10, 30}, []float64{10, 10})
	if iv.Mean != 2 {
		t.Errorf("ratio %v, want 2", iv.Mean)
	}
	// Jensen-bias case: ratios 1.0 and 1/9; pooled = 2000/10000 = 0.2.
	iv = NewRatioInterval([]float64{1000, 1000}, []float64{1000, 9000})
	if math.Abs(iv.Mean-0.2) > 1e-12 {
		t.Errorf("pooled ratio %v, want 0.2", iv.Mean)
	}
	if iv.HalfWidth <= 0 {
		t.Error("differing samples must yield a positive half-width")
	}
	if !iv.Contains(0.2+iv.HalfWidth/2) || iv.Contains(0.2+2*iv.HalfWidth) {
		t.Errorf("Contains wrong for %+v", iv)
	}
	// Identical samples: exact estimate, zero half-width.
	iv = NewRatioInterval([]float64{5, 5, 5}, []float64{10, 10, 10})
	if iv.Mean != 0.5 || iv.HalfWidth != 0 {
		t.Errorf("identical samples: %+v", iv)
	}
}

func TestRelErr(t *testing.T) {
	if e := RelErr(1.03, 1.0); math.Abs(e-0.03) > 1e-12 {
		t.Errorf("RelErr(1.03, 1) = %v", e)
	}
	if e := RelErr(0.97, -1.0); math.Abs(e-1.97) > 1e-12 {
		t.Errorf("RelErr(0.97, -1) = %v", e)
	}
	if e := RelErr(0, 0); e != 0 {
		t.Errorf("RelErr(0, 0) = %v", e)
	}
	if e := RelErr(1, 0); !math.IsInf(e, 1) {
		t.Errorf("RelErr(1, 0) = %v", e)
	}
}
