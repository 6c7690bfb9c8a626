// Package timeseries implements the temporal methods the paper uses to
// extract "true" anomalies from OD flows (Section 6.2) and to contrast
// against the subspace method (Section 7.3): EWMA forecasting with the
// bidirectional minimum trick from footnote 4, Fourier basis-function
// fitting over the paper's eight periods, spike extraction, and knee
// detection for rank-ordered anomaly sizes.
package timeseries

import (
	"fmt"
	"math"
)

// EWMA is an exponentially weighted moving average forecaster:
// zhat[t+1] = alpha*z[t] + (1-alpha)*zhat[t]. The paper selects
// 0.2 <= alpha <= 0.3 by multi-grid search on training data.
type EWMA struct {
	// Alpha controls the relative weight on recent values, 0 <= Alpha <= 1.
	Alpha float64
}

// Forecast returns the one-step-ahead predictions for z: out[t] is the
// prediction of z[t] made from z[0..t-1]. out[0] is seeded with z[0]
// (a zero-information prediction), so the first residual is zero.
func (e EWMA) Forecast(z []float64) []float64 {
	if e.Alpha < 0 || e.Alpha > 1 {
		panic(fmt.Sprintf("timeseries: EWMA alpha %v out of [0,1]", e.Alpha))
	}
	out := make([]float64, len(z))
	if len(z) == 0 {
		return out
	}
	pred := z[0]
	out[0] = pred
	for t := 1; t < len(z); t++ {
		pred = e.Alpha*z[t-1] + (1-e.Alpha)*pred
		out[t] = pred
	}
	return out
}

// Residuals returns |z[t] - zhat[t]| for the one-step EWMA forecast.
func (e EWMA) Residuals(z []float64) []float64 {
	pred := e.Forecast(z)
	out := make([]float64, len(z))
	for t := range z {
		out[t] = math.Abs(z[t] - pred[t])
	}
	return out
}

// BidirectionalResiduals runs EWMA in both time directions and reports the
// per-point minimum of the two residual estimates. This implements the
// paper's footnote 4: a plain forward EWMA mistakenly marks the bin after a
// spike as a second spike; taking the minimum of the forward and backward
// estimates suppresses that echo.
func BidirectionalResiduals(z []float64, alpha float64) []float64 {
	e := EWMA{Alpha: alpha}
	fwd := e.Residuals(z)
	rev := make([]float64, len(z))
	for i, v := range z {
		rev[len(z)-1-i] = v
	}
	bwdRev := e.Residuals(rev)
	out := make([]float64, len(z))
	for t := range z {
		b := bwdRev[len(z)-1-t]
		out[t] = math.Min(fwd[t], b)
	}
	return out
}

// SelectAlpha picks the alpha from grid minimizing the sum of squared
// one-step forecast errors on train, mirroring the paper's multi-grid
// parameter search. It panics on an empty grid. Candidates whose SSE is
// not finite (a train series containing NaN or Inf, or one that
// overflows) are skipped; when every candidate's SSE is non-finite an
// error is returned, since no comparison is meaningful. Exact SSE ties
// — constant series tie every alpha — are broken toward the paper's
// 0.2–0.3 working range rather than whatever happens to come first in
// the grid.
func SelectAlpha(train []float64, grid []float64) (float64, error) {
	if len(grid) == 0 {
		panic("timeseries: SelectAlpha needs a non-empty grid")
	}
	best := math.NaN()
	bestErr := math.Inf(1)
	found := false
	for _, a := range grid {
		pred := EWMA{Alpha: a}.Forecast(train)
		var sse float64
		for t := 1; t < len(train); t++ {
			d := train[t] - pred[t]
			sse += d * d
		}
		if !isFinite(sse) {
			continue
		}
		if !found || sse < bestErr || (sse == bestErr && alphaInWorkingRange(a) && !alphaInWorkingRange(best)) {
			bestErr = sse
			best = a
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("timeseries: SelectAlpha: no grid alpha has a finite SSE on the training series")
	}
	return best, nil
}

// alphaInWorkingRange reports whether alpha falls in the paper's
// empirically chosen 0.2 <= alpha <= 0.3 band (Section 6.2).
func alphaInWorkingRange(a float64) bool { return a >= 0.2 && a <= 0.3 }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// DefaultAlphaGrid spans the paper's working range with its neighbourhood.
var DefaultAlphaGrid = []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5}
