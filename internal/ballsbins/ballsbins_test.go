package ballsbins

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxLoadValidation(t *testing.T) {
	t.Parallel()
	if _, _, err := MaxLoad(Params{Balls: 0, Bins: 10}); err == nil {
		t.Error("MaxLoad(m=0): want error")
	}
	if _, _, err := MaxLoad(Params{Balls: 10, Bins: -1}); err == nil {
		t.Error("MaxLoad(n<0): want error")
	}
	if _, err := PoissonMaxLoad(0, 1); err == nil {
		t.Error("PoissonMaxLoad(0,1): want error")
	}
}

// TestTable5DenseCells pins the two URL cells of the paper's Table 5 that
// the heavy-load estimate reproduces exactly: 7541 (2012) and 14757
// (2013) URLs per 32-bit prefix.
func TestTable5DenseCells(t *testing.T) {
	t.Parallel()
	n := math.Pow(2, 32)
	tests := []struct {
		m    float64
		want float64
	}{
		{30e12, 7541},
		{60e12, 14757},
	}
	for _, tc := range tests {
		got := HeavyLoadEstimate(Params{Balls: tc.m, Bins: n})
		if math.Abs(got-tc.want) > 1 {
			t.Errorf("HeavyLoadEstimate(m=%g) = %.1f, want ~%.0f", tc.m, got, tc.want)
		}
	}
}

// TestTable5DomainCells pins the two domain cells that reproduce exactly
// with the log2 convention: 4196 (2012) and 4498 (2013) domains per
// 16-bit prefix.
func TestTable5DomainCells(t *testing.T) {
	t.Parallel()
	n := math.Pow(2, 16)
	tests := []struct {
		m    float64
		want float64
	}{
		{252e6, 4196},
		{271e6, 4498},
	}
	for _, tc := range tests {
		got := HeavyLoadEstimate(Params{Balls: tc.m, Bins: n, Base2: true})
		if math.Abs(got-tc.want) > 1 {
			t.Errorf("HeavyLoadEstimate(m=%g, base2) = %.1f, want ~%.0f", tc.m, got, tc.want)
		}
	}
}

// TestUniquenessAtLongPrefixes: Table 5's qualitative punchline — at 64
// bits and beyond, URLs and domains map to (nearly) unique prefixes, so
// re-identification is certain.
func TestUniquenessAtLongPrefixes(t *testing.T) {
	t.Parallel()
	tests := []struct {
		m, n float64
		max  int
	}{
		// The paper prints 2 for URLs at 64 bits; exact Poisson arithmetic
		// gives 3 (about 10^2 of the 2^64 bins hold three URLs at m=60e12).
		// Qualitatively identical: essentially unique.
		{60e12, math.Pow(2, 64), 3}, // URLs at 64 bits
		{60e12, math.Pow(2, 96), 1}, // URLs at 96 bits
		{271e6, math.Pow(2, 64), 1}, // domains at 64 bits
		{271e6, math.Pow(2, 96), 1}, // domains at 96 bits
	}
	for _, tc := range tests {
		got, err := PoissonMaxLoad(tc.m, tc.n)
		if err != nil {
			t.Fatalf("PoissonMaxLoad(%g, %g): %v", tc.m, tc.n, err)
		}
		if got > tc.max {
			t.Errorf("PoissonMaxLoad(%g, %g) = %d, want <= %d", tc.m, tc.n, got, tc.max)
		}
	}
}

// TestPoissonMatchesHeavyInDenseRegime: the asymptotic estimate and the
// exact Poisson computation agree within a few percent when m >> n.
func TestPoissonMatchesHeavyInDenseRegime(t *testing.T) {
	t.Parallel()
	for _, m := range []float64{30e12, 60e12} {
		n := math.Pow(2, 32)
		heavy := HeavyLoadEstimate(Params{Balls: m, Bins: n})
		poisson, err := PoissonMaxLoad(m, n)
		if err != nil {
			t.Fatalf("PoissonMaxLoad: %v", err)
		}
		rel := math.Abs(heavy-float64(poisson)) / heavy
		if rel > 0.03 {
			t.Errorf("m=%g: heavy=%.0f poisson=%d (rel diff %.3f)", m, heavy, poisson, rel)
		}
	}
}

func TestRegimeClassification(t *testing.T) {
	t.Parallel()
	n := math.Pow(2, 32)
	logN := math.Log(n)
	tests := []struct {
		m    float64
		want Regime
	}{
		{n / 1000, RegimeSparse},
		{n * logN, RegimeLinearithmic},
		{n * logN * 10, RegimeSuperlinear},
		{n * logN * logN * logN * 2, RegimeDense},
	}
	for _, tc := range tests {
		got := Params{Balls: tc.m, Bins: n}.ClassifyRegime()
		if got != tc.want {
			t.Errorf("ClassifyRegime(m=%g) = %v, want %v", tc.m, got, tc.want)
		}
	}
	for _, r := range []Regime{RegimeSparse, RegimeLinearithmic, RegimeSuperlinear, RegimeDense, Regime(99)} {
		if r.String() == "" {
			t.Errorf("Regime(%d).String() empty", r)
		}
	}
}

func TestSolveDc(t *testing.T) {
	t.Parallel()
	// d_c satisfies f(x) = 1 + x(ln c - ln x + 1) - c = 0 and d_c > c.
	for _, c := range []float64{0.5, 1, 2, 10.5, 100} {
		dc, err := SolveDc(c)
		if err != nil {
			t.Fatalf("SolveDc(%g): %v", c, err)
		}
		if dc <= c {
			t.Errorf("SolveDc(%g) = %g, want > c", c, dc)
		}
		residual := 1 + dc*(math.Log(c)-math.Log(dc)+1) - c
		if math.Abs(residual) > 1e-6 {
			t.Errorf("SolveDc(%g) = %g, residual %g", c, dc, residual)
		}
	}
	if _, err := SolveDc(0); err == nil {
		t.Error("SolveDc(0): want error")
	}
}

// TestMaxLoadMonotoneInBalls: more URLs can only increase the worst-case
// collision count (k-anonymity improves for the user).
func TestMaxLoadMonotoneInBalls(t *testing.T) {
	t.Parallel()
	n := math.Pow(2, 32)
	prev := 0.0
	for _, m := range []float64{1e9, 1e10, 1e11, 1e12, 1e13, 1e14} {
		got, _, err := MaxLoad(Params{Balls: m, Bins: n})
		if err != nil {
			t.Fatalf("MaxLoad(m=%g): %v", m, err)
		}
		if got < prev {
			t.Errorf("MaxLoad decreased: m=%g gives %g < %g", m, got, prev)
		}
		prev = got
	}
}

// TestMaxLoadMonotoneInBits: longer prefixes mean fewer collisions.
func TestMaxLoadMonotoneInBits(t *testing.T) {
	t.Parallel()
	prev := math.Inf(1)
	for _, bits := range []int{16, 24, 32, 48, 64, 96} {
		got, err := PoissonMaxLoad(60e12, math.Pow(2, float64(bits)))
		if err != nil {
			t.Fatalf("PoissonMaxLoad(bits=%d): %v", bits, err)
		}
		if float64(got) > prev {
			t.Errorf("PoissonMaxLoad increased at %d bits: %d > %g", bits, got, prev)
		}
		prev = float64(got)
	}
}

func TestTable5Grid(t *testing.T) {
	t.Parallel()
	urls, domains, err := Table5()
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(urls) != len(Table5PrefixBits) || len(domains) != len(Table5PrefixBits) {
		t.Fatalf("grid rows: %d urls, %d domains", len(urls), len(domains))
	}
	for i := range urls {
		if len(urls[i]) != len(Table5Years) {
			t.Fatalf("row %d has %d cells", i, len(urls[i]))
		}
	}
	// Key qualitative facts of the table.
	cell32_2013 := urls[1][2] // 32 bits, 2013
	if cell32_2013.Poisson < 10000 || cell32_2013.Poisson > 20000 {
		t.Errorf("URLs/32-bit/2013 Poisson = %d, want ~14757", cell32_2013.Poisson)
	}
	cellDom32 := domains[1][2]
	if cellDom32.Poisson > 10 {
		t.Errorf("domains/32-bit/2013 Poisson = %d, want small (re-identifiable)", cellDom32.Poisson)
	}
	cell96 := urls[3][2]
	if cell96.Poisson != 1 {
		t.Errorf("URLs/96-bit Poisson = %d, want 1", cell96.Poisson)
	}
}

// TestPoissonTailSanity cross-checks the log-space tail bound against
// direct summation for small lambda.
func TestPoissonTailSanity(t *testing.T) {
	t.Parallel()
	lambda := 3.0
	for k := 4; k <= 15; k++ {
		direct := 0.0
		for j := k; j < k+200; j++ {
			direct += math.Exp(logPoissonPMF(lambda, j))
		}
		bound := math.Exp(logPoissonTail(lambda, k))
		if bound < direct || bound > direct*3 {
			t.Errorf("k=%d: tail bound %.3g vs direct %.3g", k, bound, direct)
		}
	}
}

// TestPoissonMaxLoadProperty: estimate is always >= 1 and roughly at
// least the mean load.
func TestPoissonMaxLoadProperty(t *testing.T) {
	t.Parallel()
	f := func(mRaw, nRaw uint32) bool {
		m := float64(mRaw%1000000 + 1)
		n := float64(nRaw%100000 + 1)
		got, err := PoissonMaxLoad(m, n)
		if err != nil {
			return false
		}
		return got >= 1 && float64(got) >= math.Floor(m/n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
