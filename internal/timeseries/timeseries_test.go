package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEWMAForecastConstantSeries(t *testing.T) {
	z := []float64{5, 5, 5, 5, 5}
	pred := EWMA{Alpha: 0.3}.Forecast(z)
	for i, p := range pred {
		if math.Abs(p-5) > 1e-12 {
			t.Fatalf("pred[%d] = %v, constant series must forecast itself", i, p)
		}
	}
}

func TestEWMAAlphaOneTracksExactly(t *testing.T) {
	z := []float64{1, 2, 3, 4}
	pred := EWMA{Alpha: 1}.Forecast(z)
	// With alpha=1 the prediction of z[t] is z[t-1].
	want := []float64{1, 1, 2, 3}
	for i := range want {
		if math.Abs(pred[i]-want[i]) > 1e-12 {
			t.Fatalf("pred = %v want %v", pred, want)
		}
	}
}

func TestEWMAResidualsSpike(t *testing.T) {
	z := make([]float64, 100)
	for i := range z {
		z[i] = 10
	}
	z[50] = 100
	res := EWMA{Alpha: 0.25}.Residuals(z)
	if res[50] < 80 {
		t.Fatalf("spike residual %v too small", res[50])
	}
	// Forward EWMA leaves an echo at t=51.
	if res[51] < 10 {
		t.Fatalf("expected echo at t+1, got %v", res[51])
	}
}

func TestBidirectionalSuppressesEcho(t *testing.T) {
	z := make([]float64, 100)
	for i := range z {
		z[i] = 10
	}
	z[50] = 100
	res := BidirectionalResiduals(z, 0.25)
	if res[50] < 80 {
		t.Fatalf("spike residual %v too small", res[50])
	}
	if res[51] > 1 {
		t.Fatalf("echo at t+1 not suppressed: %v", res[51])
	}
	if res[49] > 1 {
		t.Fatalf("echo at t-1 not suppressed: %v", res[49])
	}
}

func TestBidirectionalNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z := make([]float64, 50)
		for i := range z {
			z[i] = rng.NormFloat64() * 100
		}
		for _, r := range BidirectionalResiduals(z, 0.3) {
			if r < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EWMA{Alpha: 1.5}.Forecast([]float64{1})
}

func TestEWMAEmpty(t *testing.T) {
	if got := (EWMA{Alpha: 0.2}).Forecast(nil); len(got) != 0 {
		t.Fatal("empty input must yield empty output")
	}
}

func TestSelectAlphaPrefersBetterFit(t *testing.T) {
	// A noisy random walk favours large alpha; verify grid search picks the
	// alpha with the lowest SSE, consistent with a brute-force check.
	rng := rand.New(rand.NewSource(5))
	z := make([]float64, 300)
	z[0] = 100
	for i := 1; i < len(z); i++ {
		z[i] = z[i-1] + rng.NormFloat64()
	}
	grid := []float64{0.05, 0.3, 0.9}
	got, err := SelectAlpha(z, grid)
	if err != nil {
		t.Fatal(err)
	}
	best, bestErr := 0.0, math.Inf(1)
	for _, a := range grid {
		pred := EWMA{Alpha: a}.Forecast(z)
		var sse float64
		for t := 1; t < len(z); t++ {
			d := z[t] - pred[t]
			sse += d * d
		}
		if sse < bestErr {
			bestErr, best = sse, a
		}
	}
	if got != best {
		t.Fatalf("SelectAlpha = %v want %v", got, best)
	}
}

func TestSelectAlphaEmptyGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectAlpha([]float64{1, 2}, nil)
}

func TestSelectAlphaConstantSeriesTiesTowardWorkingRange(t *testing.T) {
	// Every alpha forecasts a constant series perfectly (SSE 0 across the
	// grid); the tie must break into the paper's 0.2-0.3 band rather than
	// returning whichever grid entry comes first.
	z := []float64{7, 7, 7, 7, 7, 7}
	got, err := SelectAlpha(z, DefaultAlphaGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.2 || got > 0.3 {
		t.Fatalf("constant-series tie picked alpha %v outside the paper's 0.2-0.3 range", got)
	}
}

func TestSelectAlphaSkipsNaNSSE(t *testing.T) {
	// A NaN in the training series poisons every candidate's SSE; NaN
	// never compares less-than, so the old code silently returned grid[0].
	// Now the non-finite candidates are skipped and, with none left, the
	// failure is explicit.
	z := []float64{1, 2, math.NaN(), 4, 5}
	if _, err := SelectAlpha(z, DefaultAlphaGrid); err == nil {
		t.Fatal("all-NaN SSEs must return an error, not grid[0]")
	}
}

func TestSelectAlphaTieWithoutWorkingRangeCandidate(t *testing.T) {
	// When no candidate falls in the working range, ties still resolve to
	// a finite grid member.
	z := []float64{3, 3, 3}
	got, err := SelectAlpha(z, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 && got != 0.9 {
		t.Fatalf("SelectAlpha = %v not from grid", got)
	}
}

func TestFourierFitsPureSinusoid(t *testing.T) {
	// 1008 ten-minute bins over a week; a pure diurnal signal must be fit
	// almost exactly by the 24h basis pair.
	m := NewFourierModel(1.0 / 6.0)
	n := 1008
	z := make([]float64, n)
	for i := range z {
		hours := float64(i) / 6.0
		z[i] = 100 + 30*math.Sin(2*math.Pi*hours/24+0.7)
	}
	fit, err := m.Fit(z)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Abs(fit[i]-z[i]) > 1e-6 {
			t.Fatalf("fit[%d] = %v want %v", i, fit[i], z[i])
		}
	}
}

func TestFourierResidualIsolatesSpike(t *testing.T) {
	m := NewFourierModel(1.0 / 6.0)
	n := 1008
	z := make([]float64, n)
	for i := range z {
		hours := float64(i) / 6.0
		z[i] = 100 + 30*math.Sin(2*math.Pi*hours/24)
	}
	z[500] += 400
	res, err := m.Residuals(z)
	if err != nil {
		t.Fatal(err)
	}
	// The spike must dominate every other residual.
	for i := range res {
		if i == 500 {
			continue
		}
		if res[i] > res[500]/2 {
			t.Fatalf("residual at %d (%v) not dominated by spike (%v)", i, res[i], res[500])
		}
	}
	if res[500] < 300 {
		t.Fatalf("spike residual = %v", res[500])
	}
}

func TestFourierEmptyInput(t *testing.T) {
	m := NewFourierModel(1.0 / 6.0)
	fit, err := m.Fit(nil)
	if err != nil || fit != nil {
		t.Fatalf("empty fit = %v, %v", fit, err)
	}
}

func TestFourierInvalidBinPanics(t *testing.T) {
	m := &FourierModel{PeriodsHours: DefaultPeriodsHours, BinHours: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Fit(make([]float64, 10))
}

func TestDefaultPeriods(t *testing.T) {
	want := []float64{168, 120, 72, 24, 12, 6, 3, 1.5}
	if len(DefaultPeriodsHours) != len(want) {
		t.Fatal("period count wrong")
	}
	for i, p := range want {
		if DefaultPeriodsHours[i] != p {
			t.Fatalf("period[%d] = %v want %v", i, DefaultPeriodsHours[i], p)
		}
	}
}

func TestExtractSpikes(t *testing.T) {
	res := []float64{1, 10, 2, 20, 3}
	got := ExtractSpikes(res, 10)
	if len(got) != 2 || got[0].T != 1 || got[1].T != 3 || got[1].Size != 20 {
		t.Fatalf("ExtractSpikes = %v", got)
	}
	if got := ExtractSpikes(res, 100); len(got) != 0 {
		t.Fatal("no spikes expected")
	}
}

func TestTopSpikes(t *testing.T) {
	res := []float64{5, 1, 9, 3}
	got := TopSpikes(res, 2)
	if len(got) != 2 || got[0].T != 2 || got[0].Size != 9 || got[1].T != 0 {
		t.Fatalf("TopSpikes = %v", got)
	}
	if got := TopSpikes(res, 100); len(got) != 4 {
		t.Fatal("k larger than series must return all")
	}
}

func TestKneeIndex(t *testing.T) {
	// Sharp knee after the 3rd value.
	vals := []float64{100, 90, 80, 5, 4, 3, 2, 1}
	k := KneeIndex(vals)
	if k < 2 || k > 3 {
		t.Fatalf("KneeIndex = %d want near 2-3", k)
	}
	if KneeIndex([]float64{1, 2}) != 0 {
		t.Fatal("short input must return 0")
	}
}

func TestKneeIndexLinearSeries(t *testing.T) {
	// A straight line has no knee; any answer is acceptable but it must not
	// panic and must be in range.
	vals := []float64{10, 9, 8, 7, 6, 5}
	k := KneeIndex(vals)
	if k < 0 || k >= len(vals) {
		t.Fatalf("KneeIndex out of range: %d", k)
	}
}
