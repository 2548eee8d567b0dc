package stats

import "math"

// Interval is a point estimate with a CLT confidence interval, produced
// by the statistical sampling engine (internal/sample): Mean is the
// ratio estimate of a rate metric over the samples (IPC, MPKI, ...),
// HalfWidth the half-width of the confidence interval Mean ± HalfWidth,
// and N the number of detailed samples it was computed over.
type Interval struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	N         int     `json:"n"`
}

// IntervalZ is the critical value used for interval half-widths: 2.576
// gives a 99% normal-approximation interval, wide enough that the CI
// sampled-vs-full gate does not trip on per-sample variance alone.
const IntervalZ = 2.576

// NewRatioInterval computes the ratio-estimator interval for a metric
// of the form sum(num)/sum(den) over per-sample numerator/denominator
// pairs — the right estimator for rates like IPC (instructions/cycles)
// and MPKI (misses/instructions), where the plain mean of per-sample
// ratios is Jensen-biased whenever the metric varies across program
// phases. The half-width comes from the delta-method (Taylor
// linearization) variance of the ratio estimator:
//
//	Var(R) ≈ Σ(num_i − R·den_i)² / (n·(n−1)·mean(den)²)
func NewRatioInterval(num, den []float64) Interval {
	n := len(num)
	if n == 0 || n != len(den) {
		return Interval{}
	}
	var sn, sd float64
	for i := range num {
		sn += num[i]
		sd += den[i]
	}
	if sd == 0 {
		return Interval{N: n}
	}
	r := sn / sd
	if n < 2 {
		return Interval{Mean: r, N: n}
	}
	var ss float64
	for i := range num {
		e := num[i] - r*den[i]
		ss += e * e
	}
	meanDen := sd / float64(n)
	se := math.Sqrt(ss/float64(n-1)) / (meanDen * math.Sqrt(float64(n)))
	return Interval{Mean: r, HalfWidth: IntervalZ * se, N: n}
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool {
	return math.Abs(v-iv.Mean) <= iv.HalfWidth
}

// RelErr returns the relative error of the interval's point estimate
// against a reference value (0 when the reference is 0 and the estimate
// matches it exactly; +Inf when only the reference is 0).
func RelErr(est, ref float64) float64 {
	if ref == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-ref) / math.Abs(ref)
}
