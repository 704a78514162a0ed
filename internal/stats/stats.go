// Package stats provides Welch's unpaired t-interval, which the paper uses
// for the overhead measurements (Fig. 4: "the error bar is the 95%
// confidence interval computed with the student T test using unpaired
// measures and unequal variance").
package stats

import "math"

// Mean returns the arithmetic mean; it panics on an empty sample.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: mean of empty sample")
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// WelchResult is the outcome of Welch's unpaired two-sample comparison of
// means with unequal variances.
type WelchResult struct {
	// Diff is mean(a) - mean(b).
	Diff float64
	// SE is the standard error of the difference.
	SE float64
	// DF is the Welch-Satterthwaite degrees of freedom.
	DF float64
	// Lo and Hi bound the 95% confidence interval of Diff.
	Lo, Hi float64
	// Significant reports whether the interval excludes zero.
	Significant bool
}

// Welch computes the 95% confidence interval of mean(a)-mean(b) using
// Welch's t-interval.
func Welch(a, b []float64) WelchResult {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		panic("stats: Welch needs at least two observations per sample")
	}
	va, vb := Variance(a)/na, Variance(b)/nb
	diff := Mean(a) - Mean(b)
	se := math.Sqrt(va + vb)
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	t := TCrit95(df)
	r := WelchResult{Diff: diff, SE: se, DF: df, Lo: diff - t*se, Hi: diff + t*se}
	r.Significant = r.Lo > 0 || r.Hi < 0
	return r
}

// tTable holds two-sided 95% critical values of Student's t distribution
// for small integer degrees of freedom.
var tTable = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// TCrit95 returns the two-sided 95% critical value of Student's t for the
// given (possibly fractional) degrees of freedom; beyond 30 it blends
// toward the normal 1.96.
func TCrit95(df float64) float64 {
	if df <= 1 {
		return tTable[1]
	}
	if df >= 200 {
		return 1.96
	}
	if df < 30 {
		lo := int(math.Floor(df))
		hi := lo + 1
		frac := df - float64(lo)
		return tTable[lo]*(1-frac) + tTable[hi]*frac
	}
	// Smooth approach from t(30)=2.042 to z=1.96.
	return 1.96 + (2.042-1.96)*30/df
}
