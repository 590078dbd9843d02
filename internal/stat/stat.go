// Package stat provides what the analytic tools need for significance
// testing: the standard normal CDF, the chi-square survival function (via
// the regularized incomplete gamma function), and the one Monte-Carlo
// permutation test behind Moran's I, Geary's C, General G and Knox,
// implemented from scratch on the stdlib.
package stat

import "math"

// NormalCDF returns P(Z <= z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSurvival returns P(Z > z).
func NormalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// ChiSquareSurvival returns P(X > x) for X ~ χ²(df). It evaluates the
// regularized upper incomplete gamma function Q(df/2, x/2).
func ChiSquareSurvival(df int, x float64) float64 {
	if df <= 0 || math.IsNaN(x) {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return upperGammaRegularized(float64(df)/2, x/2)
}

// upperGammaRegularized computes Q(a, x) = Γ(a, x)/Γ(a) using the series
// expansion for x < a+1 and the continued fraction otherwise (the
// classical two-regime evaluation; each converges rapidly in its regime).
func upperGammaRegularized(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - lowerGammaSeries(a, x)
	}
	return upperGammaContinuedFraction(a, x)
}

// lowerGammaSeries computes P(a, x) by the power series
// P(a,x) = e^{-x} x^a / Γ(a) · Σ_{n≥0} x^n / (a(a+1)...(a+n)).
func lowerGammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < maxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// upperGammaContinuedFraction computes Q(a, x) by the Lentz continued
// fraction e^{-x} x^a / Γ(a) · 1/(x+1-a- 1·(1-a)/(x+3-a- ...)).
func upperGammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// MeanStd returns the sample mean and population standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
