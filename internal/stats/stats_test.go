package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanMedianVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4, 10}
	if got := Mean(x); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
	if got := Variance([]float64{2, 4}); got != 2 {
		t.Fatalf("Variance = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestEmptySamplePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Mean": func() { Mean(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWelchDetectsCleanDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 180)
	b := make([]float64, 180)
	for i := range a {
		a[i] = 100 + rng.NormFloat64()
		b[i] = 90 + rng.NormFloat64()
	}
	r := Welch(a, b)
	if !r.Significant {
		t.Fatalf("10-sigma difference not significant: %+v", r)
	}
	if r.Diff < 9 || r.Diff > 11 {
		t.Fatalf("Diff = %v, want ~10", r.Diff)
	}
	if r.Lo >= r.Hi {
		t.Fatalf("CI inverted: [%v, %v]", r.Lo, r.Hi)
	}
}

func TestWelchNoDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reject := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 60)
		b := make([]float64, 60)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if Welch(a, b).Significant {
			reject++
		}
	}
	// Under the null, ~5% of intervals exclude zero.
	if reject > trials/8 {
		t.Fatalf("Welch rejected the null %d/%d times, far above 5%%", reject, trials)
	}
}

func TestWelchCIContainsDiffProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 10)
		b := make([]float64, 10)
		for i := range a {
			a[i] = rng.Float64() * 10
			b[i] = rng.Float64() * 10
		}
		r := Welch(a, b)
		return r.Lo <= r.Diff && r.Diff <= r.Hi && r.DF > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCrit95(t *testing.T) {
	if got := TCrit95(1); got != 12.706 {
		t.Fatalf("t(1) = %v", got)
	}
	if got := TCrit95(10); math.Abs(got-2.228) > 1e-9 {
		t.Fatalf("t(10) = %v, want 2.228", got)
	}
	if got := TCrit95(1e6); got != 1.96 {
		t.Fatalf("t(inf) = %v, want 1.96", got)
	}
	// Monotone non-increasing over a sweep.
	prev := math.Inf(1)
	for df := 1.0; df < 300; df += 0.5 {
		v := TCrit95(df)
		if v > prev+1e-9 {
			t.Fatalf("TCrit95 not non-increasing at df=%v: %v > %v", df, v, prev)
		}
		prev = v
	}
}
