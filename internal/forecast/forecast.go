// Package forecast implements the paper's temporal forecasting baselines
// — EWMA and Fourier basis fitting (Sections 6.2 and 7.3) — as
// streaming detector backends behind core.ViewDetector, so they run in
// the concurrent engine side by side with the subspace method and the
// Section 7.3 comparison becomes reproducible online.
//
// Each backend forecasts every link's timeseries independently and
// alarms on forecast residuals, the design of Brutlag's Holt-Winters
// detector and the signal-analysis baselines of Barford et al.:
//
//   - ewma: the incremental one-step EWMA recursion. Alarmed bins are
//     withheld from the forecaster state, which suppresses the
//     bin-after-a-spike echo exactly as the paper's footnote-4
//     bidirectional minimum does offline.
//   - fourier: least-squares fit of the paper's eight-period sinusoid
//     basis on a window snapshot, refit in the background with the
//     engine's refit-gate discipline; prediction extrapolates the
//     fitted basis to the current absolute bin, so phase is preserved
//     across refits.
//
// Thresholds are adaptive and per link: the detector tracks an
// exponentially weighted mean and variance of each link's absolute
// residual, alarms when a residual exceeds mean + K·sigma, and
// re-estimates the statistics from the retained window on every refit —
// thresholds track the traffic level instead of being frozen at seed
// time. Anomalous bins are withheld from both the forecaster state and
// the threshold statistics, mirroring the window exclusion of the
// subspace backends.
//
// Alarms localize in time and link, not OD flow (temporal methods see
// one series at a time; that inability to identify flows is the paper's
// core argument for the subspace method), so Diagnosis.Flow is -1,
// Diagnosis.SPE/Threshold carry the worst link's squared residual and
// squared threshold, and Diagnosis.Bytes the worst link's signed
// residual.
package forecast

import (
	"fmt"
	"io"
	"math"
	"sync"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/timeseries"
)

// Kind selects the forecasting model.
type Kind string

const (
	// EWMA is the exponentially weighted moving average forecaster.
	EWMA Kind = "ewma"
	// Fourier fits the paper's sinusoid basis on the retained window.
	Fourier Kind = "fourier"
)

// Config configures NewDetector. The zero value of every field has a
// usable default.
type Config struct {
	// Kind selects the model; default EWMA.
	Kind Kind
	// Alpha is the EWMA smoothing gain in (0, 1]; 0 selects it per link
	// by grid search on the seed history (the paper's multi-grid
	// parameter search). Ignored by the Fourier kind.
	Alpha float64
	// K is the threshold multiplier: a link alarms when its absolute
	// residual exceeds mean + K*sigma of its tracked residuals. 0 uses 6.
	K float64
	// Adapt is the learning rate of the rolling residual statistics in
	// (0, 1); 0 uses 0.02 (a ~50-bin time constant: thresholds follow
	// the traffic level within hours at ten-minute bins).
	Adapt float64
	// Window is the number of recent non-anomalous bins retained for
	// refits; 0 retains as many as the seed history.
	Window int
	// ReabsorbAfter is the level-shift recovery horizon: after this
	// many consecutive alarmed bins on one link, the link's forecaster
	// resumes absorbing observed values (so a legitimate persistent
	// level change re-converges instead of alarming forever), and after
	// this many consecutive alarmed bins overall the window resumes
	// retaining rows (so refits see the new regime). Single-bin spikes
	// stay fully excluded — echo suppression is unaffected. 0 uses 5.
	ReabsorbAfter int
	// RefitEvery schedules a background refit (threshold re-estimation,
	// plus a basis refit for the Fourier kind) after this many processed
	// bins; 0 disables automatic refits.
	RefitEvery int
	// BinHours is the bin duration in hours for the Fourier basis; 0
	// uses the paper's ten-minute bins (1/6 h).
	BinHours float64
	// PeriodsHours overrides the Fourier basis periods; nil uses the
	// paper's eight periods.
	PeriodsHours []float64
	// AlphaGrid overrides the EWMA alpha search grid; nil uses
	// timeseries.DefaultAlphaGrid.
	AlphaGrid []float64
}

func (c *Config) fillDefaults() {
	if c.Kind == "" {
		c.Kind = EWMA
	}
	if c.K == 0 {
		c.K = 6
	}
	if c.Adapt == 0 {
		c.Adapt = 0.02
	}
	if c.ReabsorbAfter == 0 {
		c.ReabsorbAfter = 5
	}
	if c.BinHours == 0 {
		c.BinHours = 1.0 / 6.0
	}
	if c.PeriodsHours == nil {
		c.PeriodsHours = timeseries.DefaultPeriodsHours
	}
	if c.AlphaGrid == nil {
		c.AlphaGrid = timeseries.DefaultAlphaGrid
	}
}

// fourierCoef is an immutable fitted basis: the periods the fit could
// resolve and one coefficient vector per link. It is replaced wholesale
// on refit, never mutated. Periods travel with the coefficients because
// a fit on a short window drops the periods longer than the window can
// determine — a near-collinear long-period pair fits the window fine
// in-sample but extrapolates wildly one bin past it.
type fourierCoef struct {
	periods []float64
	coef    [][]float64 // links x (2*len(periods)+1)
}

// seedState is everything a seed or refit computes off to the side
// before committing, so a failed fit leaves the live state untouched.
type seedState struct {
	alpha       []float64
	level       []float64
	coef        *fourierCoef
	rmean, rvar []float64
	window      *mat.RowRing
	times       *intRing
}

// Detector is a streaming per-link forecasting detector satisfying
// core.ViewDetector. Concurrency follows the other backends: one
// ProcessBatch caller at a time (the engine's per-shard FIFO guarantees
// it), with Refit/Seed/WaitRefits/TakeRefitError/Stats callable
// concurrently; model fitting runs on snapshots outside the detector
// lock and never blocks detection.
type Detector struct {
	kind     Kind
	k, adapt float64
	binHours float64
	periods  []float64
	grid     []float64
	links    int
	reabsorb int
	// alphaCfg is the configured level gain (defaults applied): 0 for
	// the EWMA kind means per-link grid search, at construction and on
	// every re-Seed alike. A pinned alpha survives re-seeding.
	alphaCfg float64

	mu    sync.Mutex // guards everything below
	alpha []float64  // per-link EWMA gain
	level []float64  // per-link EWMA next-bin prediction
	coef  *fourierCoef
	// rmean/rvar are the exponentially weighted mean and variance of
	// each link's absolute residual; the alarm threshold is
	// rmean + K*sqrt(rvar).
	rmean, rvar []float64
	// alarmRun counts each link's consecutive alarmed bins and
	// binAlarmRun the detector's consecutive alarmed bins; both drive
	// the ReabsorbAfter level-shift recovery.
	alarmRun    []int
	binAlarmRun int
	window      *mat.RowRing
	times       *intRing
	clock       int // absolute bin index, seed history included (Fourier phase)
	processed   int
	sinceRefit  int
	refitEvery  int
	gate        *core.RefitGate
	refits      int
	refitHook   func()
}

var _ core.ViewDetector = (*Detector)(nil)

// NewDetector seeds a forecast detector of cfg.Kind on history
// (bins x links): forecaster state is warmed by replaying the history,
// per-link thresholds are estimated from the replay residuals, and (for
// the Fourier kind) the basis is fitted on the history. The history also
// fills the refit window.
func NewDetector(history *mat.Dense, cfg Config) (*Detector, error) {
	cfg.fillDefaults()
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	t, links := history.Dims()
	d := &Detector{
		kind:       cfg.Kind,
		k:          cfg.K,
		adapt:      cfg.Adapt,
		binHours:   cfg.BinHours,
		periods:    cfg.PeriodsHours,
		grid:       cfg.AlphaGrid,
		links:      links,
		reabsorb:   cfg.ReabsorbAfter,
		alphaCfg:   cfg.Alpha,
		refitEvery: cfg.RefitEvery,
	}
	d.gate = core.NewRefitGate(&d.mu)
	capacity := cfg.Window
	if capacity <= 0 {
		capacity = t
	}
	st, err := d.seedState(history, 0, capacity, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	d.install(st)
	d.clock = t
	return d, nil
}

func validateConfig(cfg Config) error {
	switch cfg.Kind {
	case EWMA, Fourier:
	default:
		return fmt.Errorf("forecast: unknown kind %q", cfg.Kind)
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return fmt.Errorf("forecast: alpha %v out of [0,1]", cfg.Alpha)
	}
	if cfg.K < 0 {
		return fmt.Errorf("forecast: threshold multiplier %v < 0", cfg.K)
	}
	if cfg.Adapt <= 0 || cfg.Adapt >= 1 {
		return fmt.Errorf("forecast: adapt rate %v out of (0,1)", cfg.Adapt)
	}
	if cfg.ReabsorbAfter < 0 {
		return fmt.Errorf("forecast: reabsorb horizon %v < 0", cfg.ReabsorbAfter)
	}
	if cfg.BinHours <= 0 {
		return fmt.Errorf("forecast: bin duration %v <= 0", cfg.BinHours)
	}
	return nil
}

// minSeedBins is the smallest history the kind can be seeded on: the
// Fourier fit needs more rows than basis columns to be determined, the
// EWMA recursion just needs a residual sample to estimate thresholds.
func (d *Detector) minSeedBins() int {
	if d.kind == Fourier {
		return 2 * (2*len(d.periods) + 1)
	}
	return 8
}

// SetRefitHook installs a function that runs inside every background
// refit goroutine before fitting begins; tests use it to hold a refit
// open. Call before streaming starts.
func (d *Detector) SetRefitHook(h func()) { d.refitHook = h }

// seedState builds the complete detector state from a history block off
// to the side: per-link smoothing gains (grid-searched when alphaCfg is
// 0 and the kind is EWMA), warmed forecaster state, residual statistics,
// and a filled window. start is the absolute bin index of the first
// history row; capacity sizes the refit window.
func (d *Detector) seedState(history *mat.Dense, start, capacity int, alphaCfg float64) (*seedState, error) {
	t, links := history.Dims()
	if links != d.links {
		return nil, fmt.Errorf("forecast: seed history has %d links, detector expects %d", links, d.links)
	}
	if min := d.minSeedBins(); t < min {
		return nil, fmt.Errorf("forecast: %s seed needs at least %d bins, have %d", d.kind, min, t)
	}
	st := &seedState{
		alpha:  make([]float64, links),
		level:  make([]float64, links),
		rmean:  make([]float64, links),
		rvar:   make([]float64, links),
		window: mat.NewRowRing(capacity, links),
		times:  newIntRing(capacity),
	}
	var design *mat.Dense
	if d.kind == Fourier {
		periods := d.resolvablePeriods(t)
		st.coef = &fourierCoef{periods: periods, coef: make([][]float64, links)}
		design = d.designMatrix(periods, start, t)
	}
	resid := make([]float64, t)
	for l := 0; l < links; l++ {
		col := history.Col(l)
		alpha := alphaCfg
		if d.kind == EWMA && alpha == 0 {
			var err error
			if alpha, err = timeseries.SelectAlpha(col, d.grid); err != nil {
				return nil, fmt.Errorf("forecast: link %d: %w", l, err)
			}
		}
		fit, err := d.fitLink(col, alpha, design, resid)
		if err != nil {
			return nil, fmt.Errorf("forecast: link %d: %w", l, err)
		}
		st.alpha[l] = alpha
		st.level[l] = fit.level
		if st.coef != nil {
			st.coef.coef[l] = fit.coef
		}
		st.rmean[l], st.rvar[l] = fit.rmean, fit.rvar
	}
	for b := 0; b < t; b++ {
		st.window.Push(history.RowView(b))
		st.times.Push(start + b)
	}
	return st, nil
}

// linkFit is one link's replayed model fit: the forecaster end state
// (EWMA only), the fitted basis coefficients (Fourier only), and the
// threshold statistics of the post-warmup residuals.
type linkFit struct {
	level       float64
	coef        []float64
	rmean, rvar float64
}

// fitLink replays (EWMA) or fits (Fourier, against the
// provided design matrix) one link's column from a cold start, writing
// one-step residuals into the resid buffer (len(col)) and returning the
// end state plus residual statistics. It is the single shared fit used
// by seeding and threshold re-estimation alike, so the two can never
// diverge.
func (d *Detector) fitLink(col []float64, alpha float64, design *mat.Dense, resid []float64) (linkFit, error) {
	var fit linkFit
	switch d.kind {
	case EWMA:
		pred := col[0]
		for i, z := range col {
			resid[i] = z - pred
			pred = alpha*z + (1-alpha)*pred
		}
		fit.level = pred
	case Fourier:
		coef, err := mat.SolveLS(design, col)
		if err != nil {
			return linkFit{}, fmt.Errorf("fourier fit: %w", err)
		}
		fit.coef = coef
		basis := mat.MulVec(design, coef)
		for i := range col {
			resid[i] = col[i] - basis[i]
		}
	}
	fit.rmean, fit.rvar = absStats(resid[warmup(len(col)):])
	return fit, nil
}

// warmup is the prefix of replayed residuals excluded from threshold
// estimation: the cold-started recursion has not converged there.
func warmup(n int) int {
	w := n / 8
	if w < 2 {
		w = 2
	}
	if w >= n {
		w = n - 1
	}
	return w
}

// absStats returns the mean and variance of |r| over the residuals.
func absStats(resid []float64) (mean, variance float64) {
	if len(resid) == 0 {
		return 0, 0
	}
	for _, r := range resid {
		mean += math.Abs(r)
	}
	mean /= float64(len(resid))
	for _, r := range resid {
		d := math.Abs(r) - mean
		variance += d * d
	}
	variance /= float64(len(resid))
	return mean, variance
}

// install commits a computed seed/refit state. Callers hold d.mu or own
// the detector exclusively (construction).
func (d *Detector) install(st *seedState) {
	d.alpha = st.alpha
	d.level = st.level
	d.coef = st.coef
	d.rmean, d.rvar = st.rmean, st.rvar
	d.alarmRun = make([]int, d.links)
	d.binAlarmRun = 0
	d.window, d.times = st.window, st.times
}

// resolvablePeriods returns the configured basis periods a fit over the
// given time span (in bins) can determine: a sinusoid pair whose period
// exceeds twice the span is near-collinear with the constant and the
// other long periods on that span, and its unconstrained coefficients
// extrapolate wildly right past the window.
func (d *Detector) resolvablePeriods(spanBins int) []float64 {
	spanHours := float64(spanBins) * d.binHours
	var out []float64
	for _, p := range d.periods {
		if p <= 2*spanHours {
			out = append(out, p)
		}
	}
	return out
}

// designMatrix builds the regression matrix of the sinusoid basis over
// the given periods for n consecutive bins starting at absolute bin
// index start.
func (d *Detector) designMatrix(periods []float64, start, n int) *mat.Dense {
	m := mat.Zeros(n, 2*len(periods)+1)
	for i := 0; i < n; i++ {
		d.basisRow(periods, start+i, m.RowView(i))
	}
	return m
}

// basisRow fills out with the basis values at absolute bin index b:
// a constant plus sin/cos pairs for each period.
func (d *Detector) basisRow(periods []float64, b int, out []float64) {
	out[0] = 1
	hours := float64(b) * d.binHours
	for k, period := range periods {
		w := 2 * math.Pi * hours / period
		out[1+2*k] = math.Sin(w)
		out[2+2*k] = math.Cos(w)
	}
}

// thresholdLocked returns link l's current alarm threshold:
// mean + K*sigma of its tracked absolute residuals, with two floors so
// a link whose residual history is (near-)zero — a perfectly predicted
// or constant link — does not alarm on floating-point noise: sigma
// never drops below a thousandth of the mean residual, and the whole
// threshold never drops below a billionth of the forecast magnitude
// (double-precision noise on a value of that scale sits ~1e-7 lower
// still). Callers hold d.mu.
func (d *Detector) thresholdLocked(l int, scale float64) float64 {
	sigma := math.Sqrt(d.rvar[l])
	if f := 1e-3 * d.rmean[l]; sigma < f {
		sigma = f
	}
	thr := d.rmean[l] + d.k*sigma
	if f := 1e-9 * math.Abs(scale); thr < f {
		thr = f
	}
	return thr
}

// ProcessBatch tests a block of measurements (bins x links) against the
// per-link forecasts, updates forecaster state and rolling thresholds
// with the non-anomalous bins, and schedules a background refit when the
// interval has elapsed. Alarms carry sequence numbers continuing the
// per-detector count; a deferred refit failure is reported alongside the
// batch's detections.
func (d *Detector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	bins, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("forecast: batch has %d links, detector expects %d", cols, d.links)
	}
	pred := make([]float64, d.links)
	exceeded := make([]bool, d.links)

	d.mu.Lock()
	// d.coef cannot change while mu is held (installs take mu), so the
	// basis buffer sized to its period set stays valid for the batch.
	var basis []float64
	if d.kind == Fourier {
		basis = make([]float64, 2*len(d.coef.periods)+1)
	}
	base := d.processed
	d.processed += bins
	var alarms []core.Alarm
	for b := 0; b < bins; b++ {
		row := y.RowView(b)
		if basis != nil {
			d.basisRow(d.coef.periods, d.clock, basis)
		}
		// Score every link against its forecast and adaptive threshold;
		// the bin alarms when any link exceeds, and the alarm reports the
		// link with the largest exceedance ratio.
		alarmed := false
		worstR, worstThr, worstRatio := 0.0, 0.0, 0.0
		for l := 0; l < d.links; l++ {
			switch d.kind {
			case EWMA:
				pred[l] = d.level[l]
			case Fourier:
				pred[l] = mat.Dot(basis, d.coef.coef[l])
			}
			r := row[l] - pred[l]
			thr := d.thresholdLocked(l, pred[l])
			exceeded[l] = math.Abs(r) > thr
			if exceeded[l] {
				alarmed = true
				ratio := math.Abs(r)
				if thr > 0 {
					ratio = math.Abs(r) / thr
				}
				if ratio > worstRatio {
					worstRatio, worstR, worstThr = ratio, r, thr
				}
			}
		}
		seq := base + b
		if alarmed {
			alarms = append(alarms, core.Alarm{Seq: seq, Diagnosis: core.Diagnosis{
				Bin:       seq,
				SPE:       worstR * worstR,
				Threshold: worstThr * worstThr,
				Flow:      -1,
				Bytes:     worstR,
			}})
		}
		// Per-link state update. Quiet links always advance their
		// forecaster and rolling threshold statistics; an exceeding link
		// is withheld (the forecaster keeps its pre-spike prediction —
		// the streaming equivalent of the footnote-4 echo suppression,
		// and the spike does not inflate its own threshold) until it has
		// alarmed reabsorb bins in a row, at which point the forecaster
		// resumes absorbing observations so a legitimate persistent
		// level shift re-converges instead of alarming forever. The
		// threshold statistics stay withheld; they resume once the
		// re-converged forecaster stops exceeding.
		for l := 0; l < d.links; l++ {
			if exceeded[l] {
				d.alarmRun[l]++
				if d.alarmRun[l] < d.reabsorb {
					continue
				}
			} else {
				d.alarmRun[l] = 0
			}
			z := row[l]
			var r float64
			switch d.kind {
			case EWMA:
				r = z - d.level[l]
				d.level[l] = d.alpha[l]*z + (1-d.alpha[l])*d.level[l]
			case Fourier:
				r = z - pred[l]
			}
			if exceeded[l] {
				continue // forecaster re-absorbs, thresholds stay withheld
			}
			delta := math.Abs(r) - d.rmean[l]
			d.rmean[l] += d.adapt * delta
			d.rvar[l] = (1 - d.adapt) * (d.rvar[l] + d.adapt*delta*delta)
		}
		// The refit window drops alarmed bins so spikes cannot
		// contaminate the next fit, but after reabsorb consecutive
		// alarmed bins it resumes retaining rows so refits can see (and
		// adopt) a persistent new regime — without this, the Fourier
		// kind would never recover from a level shift.
		if alarmed {
			d.binAlarmRun++
		} else {
			d.binAlarmRun = 0
		}
		if !alarmed || d.binAlarmRun >= d.reabsorb {
			d.window.Push(row)
			d.times.Push(d.clock)
		}
		d.clock++
	}
	err := d.gate.TakeErrorLocked()
	var snap *refitSnapshot
	if d.refitEvery > 0 {
		d.sinceRefit += bins
		if d.sinceRefit >= d.refitEvery && d.gate.TryBeginLocked() {
			d.sinceRefit = 0
			snap = d.snapshotLocked()
		}
	}
	d.mu.Unlock()

	if snap != nil {
		d.spawnRefit(snap)
	}
	return alarms, err
}

// refitSnapshot carries what a background refit fits on: the window
// rows, their absolute bin indices, and the per-link gains in force.
type refitSnapshot struct {
	rows  *mat.Dense
	times []int
	alpha []float64
}

// snapshotLocked captures the refit inputs. Callers hold d.mu.
func (d *Detector) snapshotLocked() *refitSnapshot {
	return &refitSnapshot{rows: d.window.Matrix(), times: d.times.Slice(), alpha: append([]float64(nil), d.alpha...)}
}

// refitState re-estimates the per-link threshold statistics from the
// snapshot — replaying the recursion for EWMA, refitting the basis for
// the Fourier kind — entirely outside the detector lock.
// The returned state carries only the fields a refit replaces (thresholds
// and, for Fourier, coefficients); nil slices mean "keep the live value".
func (d *Detector) refitState(snap *refitSnapshot) (*seedState, error) {
	if snap.rows == nil {
		return nil, fmt.Errorf("forecast: refit window is empty")
	}
	t, links := snap.rows.Dims()
	st := &seedState{
		rmean: make([]float64, links),
		rvar:  make([]float64, links),
	}
	var design *mat.Dense
	if d.kind == Fourier {
		// The window may have gaps (withheld anomalous bins); its
		// resolvable periods come from the true time span it covers.
		span := snap.times[len(snap.times)-1] - snap.times[0] + 1
		periods := d.resolvablePeriods(span)
		if t < 2*(2*len(periods)+1) {
			return nil, fmt.Errorf("forecast: refit window has %d bins, fourier basis needs %d", t, 2*(2*len(periods)+1))
		}
		st.coef = &fourierCoef{periods: periods, coef: make([][]float64, links)}
		design = d.designMatrixAt(periods, snap.times)
	}
	resid := make([]float64, t)
	for l := 0; l < links; l++ {
		fit, err := d.fitLink(snap.rows.Col(l), snap.alpha[l], design, resid)
		if err != nil {
			return nil, fmt.Errorf("forecast: link %d: %w", l, err)
		}
		if st.coef != nil {
			st.coef.coef[l] = fit.coef
		}
		st.rmean[l], st.rvar[l] = fit.rmean, fit.rvar
	}
	return st, nil
}

// designMatrixAt builds the basis regression matrix for explicit
// absolute bin indices — the refit window may have gaps where anomalous
// bins were withheld, so row times are not consecutive.
func (d *Detector) designMatrixAt(periods []float64, times []int) *mat.Dense {
	m := mat.Zeros(len(times), 2*len(periods)+1)
	for i, b := range times {
		d.basisRow(periods, b, m.RowView(i))
	}
	return m
}

// installRefit commits a refit result under the lock: thresholds are
// re-based on the window estimate and the Fourier basis (when present)
// is swapped; the live forecaster state stays, since it is more current
// than any replay of the snapshot.
func (d *Detector) installRefit(st *seedState) {
	d.rmean, d.rvar = st.rmean, st.rvar
	if st.coef != nil {
		d.coef = st.coef
	}
}

// spawnRefit runs the refit on the snapshot in a background goroutine.
// The caller has already claimed the gate; the goroutine releases it
// after the install decision so fits never interleave.
func (d *Detector) spawnRefit(snap *refitSnapshot) {
	go func() {
		if h := d.refitHook; h != nil {
			h()
		}
		st, err := d.refitState(snap)
		if err != nil {
			err = fmt.Errorf("forecast: %s refit: %w", d.kind, err)
		}
		d.mu.Lock()
		if err == nil {
			d.installRefit(st)
			d.refits++
		}
		d.gate.EndLocked(err)
		d.mu.Unlock()
	}()
}

// Refit synchronously re-estimates the thresholds (and refits the
// Fourier basis) from the current window. It serializes with background
// refits but never blocks concurrent detection: the fit runs on a
// snapshot outside the lock. A failed fit leaves the active state in
// force.
func (d *Detector) Refit() error {
	d.mu.Lock()
	d.gate.BeginLocked()
	snap := d.snapshotLocked()
	d.mu.Unlock()

	st, err := d.refitState(snap)
	if err != nil {
		err = fmt.Errorf("forecast: %s refit: %w", d.kind, err)
	}

	d.mu.Lock()
	if err == nil {
		d.installRefit(st)
		d.refits++
	}
	d.gate.EndLocked(nil)
	d.mu.Unlock()
	return err
}

// Seed rebuilds the full detector state from a history block, replacing
// the windowed state a later Refit would fit on; the history is treated
// as the immediately preceding bins, so the Fourier phase stays aligned
// with the running clock. It serializes with in-flight refits; the
// processed-bin counter keeps running. A history that cannot be fitted
// leaves the active state untouched.
func (d *Detector) Seed(history *mat.Dense) error {
	t, links := history.Dims()
	if links != d.links {
		return fmt.Errorf("forecast: seed history has %d links, detector expects %d", links, d.links)
	}
	d.mu.Lock()
	d.gate.BeginLocked()
	start := d.clock - t
	capacity := d.window.Cap()
	d.mu.Unlock()

	// The configured alpha is re-applied exactly as construction did: a
	// pinned gain survives re-seeding, and an unset EWMA gain re-runs
	// the per-link grid search on the new history.
	st, err := d.seedState(history, start, capacity, d.alphaCfg)
	if err != nil {
		err = fmt.Errorf("forecast: %s seed: %w", d.kind, err)
	}

	d.mu.Lock()
	if err == nil {
		d.install(st)
		d.sinceRefit = 0
		d.refits++
	}
	d.gate.EndLocked(nil)
	d.mu.Unlock()
	return err
}

// WaitRefits blocks until no fit is in flight.
func (d *Detector) WaitRefits() { d.gate.Wait() }

// TakeRefitError returns and clears the deferred error from the last
// failed background refit, if any.
func (d *Detector) TakeRefitError() error { return d.gate.TakeError() }

// Stats reports the detector's current state. Rank is 0: forecast
// backends model links independently and have no subspace dimension.
func (d *Detector) Stats() core.ViewStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return core.ViewStats{
		Backend:   string(d.kind),
		Links:     d.links,
		Processed: d.processed,
		Refits:    d.refits,
	}
}

// snapshotKind maps the forecast kind to its snapshot kind byte, so an
// EWMA snapshot can never restore into a Fourier detector even though
// the two share most state.
func snapshotKind(k Kind) byte {
	if k == EWMA {
		return core.SnapKindEWMA
	}
	return core.SnapKindFourier
}

// Snapshot serializes the per-link forecaster recursions (gains, level,
// fitted Fourier basis), the adaptive threshold statistics, the
// alarm-run counters, the refit window with its bin-time ring, and the
// absolute clock that keeps the Fourier phase aligned. A per-link trend
// slot, always zero, keeps the envelope the shape it has always had, so
// existing checkpoints restore. The refit gate is taken first so an
// in-flight refit is waited out, never captured mid-install.
func (d *Detector) Snapshot(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gate.BeginLocked()
	defer d.gate.EndLocked(nil)
	return core.EncodeSnapshot(w, snapshotKind(d.kind), func(sw *core.SnapshotWriter) {
		sw.Int(d.links)
		sw.Floats(d.alpha)
		sw.Floats(d.level)
		sw.Floats(make([]float64, d.links)) // trend slot
		sw.Bool(d.coef != nil)
		if d.coef != nil {
			sw.Floats(d.coef.periods)
			for _, c := range d.coef.coef {
				sw.Floats(c)
			}
		}
		sw.Floats(d.rmean)
		sw.Floats(d.rvar)
		sw.Ints(d.alarmRun)
		sw.Int(d.binAlarmRun)
		sw.RowRing(d.window)
		sw.Ints(d.times.Slice())
		sw.Int(d.clock)
		sw.Int(d.processed)
		sw.Int(d.sinceRefit)
		sw.Int(d.refits)
	})
}

// Restore replaces the forecaster state, thresholds, window, and clock
// with a snapshot from an identically configured detector of the same
// kind. The state commits only after the whole payload validates; the
// receiver's configuration (K, adapt rate, reabsorb horizon, bin
// duration, refit cadence) stays in force.
func (d *Detector) Restore(r io.Reader) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gate.BeginLocked()
	defer d.gate.EndLocked(nil)
	return core.DecodeSnapshot(r, snapshotKind(d.kind), func(sr *core.SnapshotReader) error {
		links := sr.Int()
		if sr.Err() == nil && links != d.links {
			return core.SnapshotMismatchf("snapshot has %d links, detector expects %d", links, d.links)
		}
		alpha := sr.Floats()
		level := sr.Floats()
		trend := sr.Floats()
		var coef *fourierCoef
		if sr.Bool() {
			coef = &fourierCoef{periods: sr.Floats(), coef: make([][]float64, d.links)}
			for l := range coef.coef {
				coef.coef[l] = sr.Floats()
			}
		}
		rmean := sr.Floats()
		rvar := sr.Floats()
		alarmRun := sr.Ints()
		binAlarmRun := sr.NonNegInt()
		window := sr.RowRing(d.links)
		times := sr.Ints()
		clock := sr.Int()
		processed := sr.NonNegInt()
		sinceRefit := sr.NonNegInt()
		refits := sr.NonNegInt()
		if err := sr.Err(); err != nil {
			return err
		}
		for _, s := range [][]float64{alpha, level, trend, rmean, rvar} {
			if len(s) != d.links {
				return fmt.Errorf("%w: per-link state has %d entries, want %d", core.ErrSnapshotFormat, len(s), d.links)
			}
		}
		// The trend slot is written as zeros; anything else (-0
		// included) would not re-encode to the same bytes.
		for l, v := range trend {
			if math.Float64bits(v) != 0 {
				return fmt.Errorf("%w: link %d trend slot is %v, want 0", core.ErrSnapshotFormat, l, v)
			}
		}
		if len(alarmRun) != d.links {
			return fmt.Errorf("%w: alarm runs have %d entries, want %d", core.ErrSnapshotFormat, len(alarmRun), d.links)
		}
		if (coef != nil) != (d.kind == Fourier) {
			return fmt.Errorf("%w: fourier basis presence disagrees with kind %q", core.ErrSnapshotFormat, d.kind)
		}
		if coef != nil {
			width := 2*len(coef.periods) + 1
			for l, c := range coef.coef {
				if len(c) != width {
					return fmt.Errorf("%w: link %d basis has %d coefficients, want %d", core.ErrSnapshotFormat, l, len(c), width)
				}
			}
		}
		if len(times) != window.Len() {
			return fmt.Errorf("%w: %d bin times for %d window rows", core.ErrSnapshotFormat, len(times), window.Len())
		}
		timeRing := newIntRing(window.Cap())
		for _, t := range times {
			timeRing.Push(t)
		}
		d.alpha = alpha
		d.level = level
		d.coef = coef
		d.rmean, d.rvar = rmean, rvar
		d.alarmRun = alarmRun
		d.binAlarmRun = binAlarmRun
		d.window, d.times = window, timeRing
		d.clock = clock
		d.processed = processed
		d.sinceRefit = sinceRefit
		d.refits = refits
		return nil
	})
}

// Thresholds returns each link's current alarm threshold
// (mean + K*sigma of its tracked absolute residuals, floored against
// the magnitude of the next bin's forecast — the same floor scale
// ProcessBatch would apply), for inspection and tests.
func (d *Detector) Thresholds() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var basis []float64
	if d.kind == Fourier {
		basis = make([]float64, 2*len(d.coef.periods)+1)
		d.basisRow(d.coef.periods, d.clock, basis)
	}
	out := make([]float64, d.links)
	for l := range out {
		var pred float64
		switch d.kind {
		case EWMA:
			pred = d.level[l]
		case Fourier:
			pred = mat.Dot(basis, d.coef.coef[l])
		}
		out[l] = d.thresholdLocked(l, pred)
	}
	return out
}

// Alphas returns the per-link level smoothing gains in force (the grid
// search result when Config.Alpha was 0 for the EWMA kind).
func (d *Detector) Alphas() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.alpha...)
}

// intRing is a fixed-capacity ring of ints, pushed in lockstep with the
// window's RowRing to remember each retained row's absolute bin index
// (the window has gaps where anomalous bins were withheld, and the
// Fourier basis needs true times).
type intRing struct {
	data     []int
	capacity int
	next     int
	count    int
}

func newIntRing(capacity int) *intRing {
	return &intRing{data: make([]int, capacity), capacity: capacity}
}

func (r *intRing) Push(v int) {
	r.data[r.next] = v
	r.next = (r.next + 1) % r.capacity
	if r.count < r.capacity {
		r.count++
	}
}

// Slice returns the buffered values, oldest first.
func (r *intRing) Slice() []int {
	out := make([]int, r.count)
	start := 0
	if r.count == r.capacity {
		start = r.next
	}
	n := copy(out, r.data[start:r.count])
	copy(out[n:], r.data[:start])
	return out
}
