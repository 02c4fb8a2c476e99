// Package ballsbins quantifies the privacy of hashing-and-truncation with
// the balls-into-bins model of the paper's Section 5.
//
// URLs are balls, l-bit prefixes are bins (n = 2^l). The maximum load M —
// the largest number of URLs sharing one prefix — is the provider's
// worst-case uncertainty when re-identifying a URL from a single prefix,
// and doubles as a k-anonymity parameter. The package implements:
//
//   - Theorem 1 of Raab and Steger ("Balls into Bins - A Simple and Tight
//     Analysis"), with its four density regimes;
//   - a numerically exact Poisson estimator of the expected maximum load,
//     used to cross-check the asymptotic formulas.
package ballsbins

import (
	"errors"
	"fmt"
	"math"
)

// Params configures a max-load computation.
type Params struct {
	// Balls is m, the number of URLs (or domains).
	Balls float64
	// Bins is n, the number of prefixes (2^l).
	Bins float64
	// Alpha is the theorem's free parameter; the bound holds with
	// probability 1-o(1) for Alpha > 1. Zero means 1.
	Alpha float64
	// Base2 selects log base 2 instead of the natural log. The theorem is
	// asymptotic, so the base is a modelling choice; the paper's Table 5
	// mixes both (see EXPERIMENTS.md).
	Base2 bool
}

// Regime identifies which case of Theorem 1 applies.
type Regime int

// Theorem 1 regimes, ordered by increasing density m/n.
const (
	// RegimeSparse: polylog(n) <= m << n log n.
	RegimeSparse Regime = iota + 1
	// RegimeLinearithmic: m = c * n log n for constant c.
	RegimeLinearithmic
	// RegimeSuperlinear: n log n << m <= n polylog(n).
	RegimeSuperlinear
	// RegimeDense: m >> n (log n)^3.
	RegimeDense
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case RegimeSparse:
		return "sparse (m << n log n)"
	case RegimeLinearithmic:
		return "linearithmic (m = c n log n)"
	case RegimeSuperlinear:
		return "superlinear (n log n << m <= n polylog n)"
	case RegimeDense:
		return "dense (m >> n log^3 n)"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// ErrBadParams reports non-positive ball or bin counts.
var ErrBadParams = errors.New("ballsbins: balls and bins must be positive")

func (p Params) logFn(x float64) float64 {
	if p.Base2 {
		return math.Log2(x)
	}
	return math.Log(x)
}

func (p Params) alpha() float64 {
	if p.Alpha <= 0 {
		return 1
	}
	return p.Alpha
}

// ClassifyRegime selects the Theorem 1 case for the given density.
func (p Params) ClassifyRegime() Regime {
	logN := p.logFn(p.Bins)
	switch {
	case p.Balls >= p.Bins*logN*logN*logN:
		return RegimeDense
	case p.Balls > p.Bins*logN:
		return RegimeSuperlinear
	case p.Balls >= p.Bins*logN/8:
		// Within a constant factor of n log n.
		return RegimeLinearithmic
	default:
		return RegimeSparse
	}
}

// MaxLoad evaluates the Theorem 1 bound k_alpha for the applicable
// regime and returns it with the regime used. The result approximates M,
// the maximum number of URLs sharing one prefix.
func MaxLoad(p Params) (float64, Regime, error) {
	if p.Balls <= 0 || p.Bins <= 0 {
		return 0, 0, fmt.Errorf("%w: m=%v n=%v", ErrBadParams, p.Balls, p.Bins)
	}
	m, n := p.Balls, p.Bins
	alpha := p.alpha()
	logN := p.logFn(n)
	regime := p.ClassifyRegime()

	var k float64
	switch regime {
	case RegimeSparse:
		// k = (log n / log(n log n / m)) * (1 + alpha * loglog(...) / log(...))
		ratio := n * logN / m
		logRatio := p.logFn(ratio)
		if logRatio <= 0 {
			logRatio = math.SmallestNonzeroFloat64
		}
		k = logN / logRatio
		if ll := p.logFn(logRatio); ll > 0 {
			k *= 1 + alpha*ll/logRatio
		}
	case RegimeLinearithmic:
		c := m / (n * logN)
		dc, err := SolveDc(c)
		if err != nil {
			return 0, regime, err
		}
		k = (dc - 1 + alpha) * logN
	case RegimeSuperlinear:
		k = m/n + alpha*math.Sqrt(2*(m/n)*logN)
	case RegimeDense:
		// m/n + sqrt(2 (m/n) log n (1 - (1/alpha) loglog n / (2 log n)))
		corr := 1 - (1/alpha)*p.logFn(logN)/(2*logN)
		if corr < 0 {
			corr = 0
		}
		k = m/n + math.Sqrt(2*(m/n)*logN*corr)
	}
	if k < 1 {
		k = 1
	}
	return k, regime, nil
}

// HeavyLoadEstimate is the classic estimate m/n + sqrt(2 (m/n) log n)
// that the paper's Table 5 uses for its dense cells (URLs at 32 bits);
// see EXPERIMENTS.md for the calibration.
func HeavyLoadEstimate(p Params) float64 {
	if p.Balls <= 0 || p.Bins <= 0 {
		return 0
	}
	load := p.Balls / p.Bins
	return load + p.alpha()*math.Sqrt(2*load*p.logFn(p.Bins))
}

// SolveDc solves 1 + x(log c - log x + 1) - c = 0 for x >= c, the d_c
// constant of the theorem's linearithmic regime.
func SolveDc(c float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("ballsbins: d_c undefined for c=%v", c)
	}
	f := func(x float64) float64 {
		return 1 + x*(math.Log(c)-math.Log(x)+1) - c
	}
	// f(c) = 1 > 0 and f is strictly decreasing for x > c; bracket the
	// root by doubling.
	lo, hi := c, 2*c+2
	for f(hi) > 0 {
		hi *= 2
		if hi > 1e18 {
			return 0, fmt.Errorf("ballsbins: d_c bracket failed for c=%v", c)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// PoissonMaxLoad estimates the expected maximum load exactly under the
// Poisson approximation: the smallest k with n * P[Poisson(m/n) >= k] < 1.
// It is the numeric cross-check for MaxLoad and works in every regime.
func PoissonMaxLoad(m, n float64) (int, error) {
	if m <= 0 || n <= 0 {
		return 0, fmt.Errorf("%w: m=%v n=%v", ErrBadParams, m, n)
	}
	lambda := m / n
	// Search k upward from the mode. Expected max is within
	// O(sqrt(lambda log n) + log n) of lambda.
	start := int(math.Floor(lambda))
	if start < 1 {
		start = 1
	}
	limit := start + int(20*math.Sqrt(lambda+1)+10*math.Log(n+2)+50)
	logN := math.Log(n)
	for k := start; k <= limit; k++ {
		if logN+logPoissonTail(lambda, k) < 0 {
			if k == start {
				// Even the mode is unlikely to fill: max load may be
				// below lambda (huge bins). Walk downward.
				for j := start; j >= 1; j-- {
					if logN+logPoissonTail(lambda, j) >= 0 {
						return j, nil
					}
				}
				return 1, nil
			}
			return k - 1, nil
		}
	}
	return limit, nil
}

// logPoissonPMF returns ln P[Poisson(lambda) = k].
func logPoissonPMF(lambda float64, k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return -lambda + float64(k)*math.Log(lambda) - lg
}

// logPoissonTail returns ln P[Poisson(lambda) >= k], via a geometric
// bound on the ratio decay for k > lambda and direct summation otherwise.
func logPoissonTail(lambda float64, k int) float64 {
	if float64(k) <= lambda {
		// Tail probability is at least 1/2-ish; treat as certain.
		return math.Log(0.5)
	}
	logP := logPoissonPMF(lambda, k)
	// P[X >= k] = P[X=k] (1 + lambda/(k+1) + lambda^2/((k+1)(k+2)) + ...)
	// <= P[X=k] / (1 - lambda/(k+1)).
	r := lambda / float64(k+1)
	if r < 1 {
		logP -= math.Log(1 - r)
	} else {
		logP += math.Log(float64(k))
	}
	return logP
}
