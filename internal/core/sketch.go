package core

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"netanomaly/internal/mat"
)

// FDSketch maintains a Frequent-Directions sketch of the centered
// measurement stream: an ell x m row buffer B whose Gram matrix B^T B
// approximates the unnormalized covariance of everything inserted, with
// spectral error at most 2 * total energy / ell (Liberty 2013, Ghashami
// et al. 2016). Memory is O(ell * m) regardless of how many bins have
// streamed through — the property that lets a covariance-based detector
// run per view at a scale where even an m x m covariance's refit cost
// hurts, let alone a sliding window of raw bins.
//
// When the buffer fills, the sketch shrinks: it eigendecomposes the
// small ell x ell Gram B B^T, subtracts the median eigenvalue from
// every direction and rebuilds the buffer from the surviving ones — at
// least half the rows come back empty, so shrinks amortize to
// O(ell*m + ell^2) per inserted row. The energy removed by shrinking is
// tracked exactly (total inserted energy minus energy retained in B)
// and restored at model-build time as an isotropic correction
// alpha * I spread over all m directions — the "robust" FD covariance
// estimate — which keeps the residual spectrum positive so the
// Q-statistic threshold stays calibrated.
//
// Rows are centered against a running mean that evolves as bins are
// inserted; like every single-pass mean estimate this differs from
// retrospective centering by O(1/n) terms, which the seed history (n of
// at least m bins) makes negligible.
type FDSketch struct {
	m, ell int
	b      *mat.Dense // ell x m row buffer
	used   int        // occupied rows of b
	mean   []float64  // running per-link mean
	n      int        // total inserted rows
	energy float64    // exact sum of ||x - mean||^2 over inserted rows
}

// NewFDSketch returns an empty sketch of ell rows over m links.
func NewFDSketch(m, ell int) (*FDSketch, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: sketch needs m > 0, got %d", m)
	}
	if ell < 4 {
		return nil, fmt.Errorf("core: sketch size %d too small (need >= 4)", ell)
	}
	return &FDSketch{
		m:    m,
		ell:  ell,
		b:    mat.Zeros(ell, m),
		mean: make([]float64, m),
	}, nil
}

// Size returns the sketch size ell.
func (s *FDSketch) Size() int { return s.ell }

// Count returns how many rows have been inserted.
func (s *FDSketch) Count() int { return s.n }

// rowsView returns the occupied prefix of the buffer without copying.
func (s *FDSketch) rowsView() *mat.Dense {
	return mat.NewDense(s.used, s.m, s.b.RawData()[:s.used*s.m])
}

// Insert absorbs one measurement vector: the running mean advances,
// the centered row lands in the buffer, and a full buffer triggers a
// shrink.
func (s *FDSketch) Insert(x []float64) error {
	if len(x) != s.m {
		return fmt.Errorf("core: sketch insert has %d links, want %d", len(x), s.m)
	}
	s.n++
	inv := 1 / float64(s.n)
	row := s.b.RowView(s.used)
	var norm2 float64
	for j, v := range x {
		s.mean[j] += (v - s.mean[j]) * inv
		c := v - s.mean[j]
		row[j] = c
		norm2 += c * c
	}
	s.energy += norm2
	s.used++
	if s.used == s.ell {
		return s.shrink()
	}
	return nil
}

// InsertAll absorbs every row of y.
func (s *FDSketch) InsertAll(y *mat.Dense) error {
	for i := 0; i < y.Rows(); i++ {
		if err := s.Insert(y.RowView(i)); err != nil {
			return err
		}
	}
	return nil
}

// InsertMasked absorbs the rows of y whose skip flag is false — the
// sketch equivalent of withholding anomalous bins from the model
// window.
func (s *FDSketch) InsertMasked(y *mat.Dense, skip []bool) error {
	for i := 0; i < y.Rows(); i++ {
		if i < len(skip) && skip[i] {
			continue
		}
		if err := s.Insert(y.RowView(i)); err != nil {
			return err
		}
	}
	return nil
}

// shrink halves the buffer occupancy: eigendecompose G = B B^T, shed
// the median eigenvalue delta from every direction, and rebuild the
// buffer rows as sqrt(lambda_i - delta) * v_i for the directions that
// survive. All linear algebra is ell-sized; m enters only through the
// two rectangular products.
func (s *FDSketch) shrink() error {
	bu := s.rowsView()
	vals, vecs, err := mat.SymEig(mat.Mul(bu, bu.T()))
	if err != nil {
		return fmt.Errorf("core: sketch shrink: %w", err)
	}
	delta := vals[s.ell/2]
	if delta < 0 {
		delta = 0
	}
	fresh := mat.Zeros(s.ell, s.m)
	k := 0
	for i := 0; i < s.used; i++ {
		li := vals[i]
		if li <= delta || li <= 0 {
			break // descending spectrum: everything after is shed too
		}
		// New row k = sigma'_i * v_i = sqrt((li-delta)/li) * B^T u_i.
		scale := math.Sqrt((li - delta) / li)
		dir := mat.MulTVec(bu, vecs.Col(i))
		row := fresh.RowView(k)
		for j, v := range dir {
			row[j] = scale * v
		}
		k++
	}
	s.b = fresh
	s.used = k
	return nil
}

// Snapshot returns an independent copy for a background model solve.
func (s *FDSketch) Snapshot() *FDSketch {
	return &FDSketch{
		m:      s.m,
		ell:    s.ell,
		b:      s.b.Clone(),
		used:   s.used,
		mean:   mat.CloneVec(s.mean),
		n:      s.n,
		energy: s.energy,
	}
}

// PCA solves the sketch's small eigenproblem and assembles a PCA over
// all m link directions: the sketch's surviving directions carry their
// (shed-corrected) variances, and the energy lost to shrinking returns
// as an isotropic alpha*I term so the tail of the spectrum — the
// residual subspace the Q-statistic integrates over — stays positive.
// The second result is how many leading directions the sketch actually
// spans; a model rank beyond it would project onto zero columns.
func (s *FDSketch) PCA() (*PCA, int, error) {
	if s.n < 2 {
		return nil, 0, ErrTooFewSamples
	}
	if s.used == 0 {
		return nil, 0, fmt.Errorf("core: sketch holds no directions")
	}
	bu := s.rowsView()
	vals, vecs, err := mat.SymEig(mat.Mul(bu, bu.T()))
	if err != nil {
		return nil, 0, fmt.Errorf("core: sketch eigendecomposition: %w", err)
	}
	var retained float64
	for _, v := range vals {
		if v > 0 {
			retained += v
		}
	}
	alpha := (s.energy - retained) / float64(s.m)
	if alpha < 0 {
		alpha = 0 // exact-regime round-off: nothing was shed
	}
	denom := float64(s.n - 1)
	comps := mat.Zeros(s.m, s.m)
	variances := make([]float64, s.m)
	floor := 1e-12 * vals[0]
	k := 0
	for i := 0; i < s.used && k < s.m; i++ {
		li := vals[i]
		if li <= floor || li <= 0 {
			break
		}
		dir := mat.MulTVec(bu, vecs.Col(i))
		inv := 1 / math.Sqrt(li)
		for r, v := range dir {
			comps.Set(r, k, inv*v)
		}
		variances[k] = (li + alpha) / denom
		k++
	}
	if k == 0 {
		return nil, 0, fmt.Errorf("core: sketch spectrum collapsed")
	}
	for i := k; i < s.m; i++ {
		variances[i] = alpha / denom
	}
	p := &PCA{
		Components:  comps,
		Variances:   variances,
		Projections: mat.Zeros(1, s.m), // a sketch keeps no temporal view
		Means:       mat.CloneVec(s.mean),
		SampleCount: s.n,
	}
	return p, k, nil
}

// SketchConfig configures NewSketchDetector.
type SketchConfig struct {
	// SketchSize is ell, the number of sketch rows. Memory is O(ell*m)
	// and a refit costs O(ell^2*m + ell^3) — both independent of how
	// long the stream runs. Detection agreement with the exact-
	// covariance backends needs ell >= 2*rank (the shrink step always
	// preserves the top ell/2 directions); 0 picks max(8, 4*rank) from
	// the seed fit's resolved rank.
	SketchSize int
	// RefitEvery triggers a background model rebuild from the sketch
	// after this many processed bins; 0 disables automatic rebuilds.
	RefitEvery int
	// DriftTol gates automatic rebuilds: swap only when the residual
	// projector moved at least this far (Frobenius). 0 swaps every
	// interval.
	DriftTol float64
	// Options configure the diagnoser (confidence, sigma, fixed rank).
	Options Options
}

// SketchDetector is the Frequent-Directions streaming backend. It seeds
// exactly like the subspace backend (full batch fit on the history, the
// paper's rank separation), then tracks the covariance in an FDSketch
// instead of a window of raw bins, so per-view memory is O(ell*m) and a
// rebuild solves an ell-sized eigenproblem instead of an SVD of the
// window — the cheapest refit in the family, bought with a bounded
// spectral error that detection absorbs (the normal subspace needs only
// the top-rank directions, which FD preserves best).
//
// Concurrency follows OnlineDetector: lock-free detection against an
// atomically swapped Diagnoser, background rebuilds on a sketch
// snapshot serialized by a RefitGate, deferred error reporting.
type SketchDetector struct {
	a        *mat.Dense
	opts     Options
	links    int
	ell      int
	driftTol float64

	diag atomic.Pointer[Diagnoser]

	mu         sync.Mutex // guards the fields below
	sk         *FDSketch
	rank       int
	processed  int
	sinceRefit int
	refitEvery int
	gate       *RefitGate
	refits     int
	skipped    int
	refitHook  func()
}

var _ ViewDetector = (*SketchDetector)(nil)

// sketchSizeFor validates or defaults ell against the resolved model
// rank.
func sketchSizeFor(ell, rank int) (int, error) {
	if ell == 0 {
		ell = 4 * rank
		if ell < 8 {
			ell = 8
		}
	}
	if ell < 2*rank {
		return 0, fmt.Errorf("core: sketch size %d < 2*rank (rank %d): shrinking would discard normal-subspace directions", ell, rank)
	}
	if ell < 4 {
		return 0, fmt.Errorf("core: sketch size %d too small (need >= 4)", ell)
	}
	return ell, nil
}

// NewSketchDetector seeds the model with a full batch fit on history
// (bins x links) — identical to the subspace seed, so both start from
// the same model — and initializes the sketch from the same rows.
// routing (links x flows) drives identification.
func NewSketchDetector(history, a *mat.Dense, cfg SketchConfig) (*SketchDetector, error) {
	cfg.Options.fillDefaults()
	t, links := history.Dims()
	if t < 2 {
		return nil, ErrTooFewSamples
	}
	diag, err := NewDiagnoser(history, a, cfg.Options)
	if err != nil {
		return nil, err
	}
	rank := diag.Detector().Model().Rank()
	ell, err := sketchSizeFor(cfg.SketchSize, rank)
	if err != nil {
		return nil, err
	}
	sk, err := NewFDSketch(links, ell)
	if err != nil {
		return nil, err
	}
	if err := sk.InsertAll(history); err != nil {
		return nil, err
	}
	d := &SketchDetector{
		a:          a,
		opts:       cfg.Options,
		links:      links,
		ell:        ell,
		driftTol:   cfg.DriftTol,
		sk:         sk,
		rank:       rank,
		refitEvery: cfg.RefitEvery,
	}
	d.gate = NewRefitGate(&d.mu)
	d.diag.Store(diag)
	return d, nil
}

// SetRefitHook installs a function that runs inside every background
// rebuild goroutine before solving begins; tests use it to hold a
// rebuild open. Call before streaming starts.
func (d *SketchDetector) SetRefitHook(h func()) { d.refitHook = h }

// diagnoserFromSketch assembles the full pipeline from a sketch
// snapshot at the given rank.
func (d *SketchDetector) diagnoserFromSketch(sk *FDSketch, rank int) (*Diagnoser, error) {
	p, span, err := sk.PCA()
	if err != nil {
		return nil, err
	}
	if rank > span {
		return nil, fmt.Errorf("core: sketch spans %d directions, model rank is %d", span, rank)
	}
	model, err := Build(p, rank)
	if err != nil {
		return nil, err
	}
	det, err := NewDetector(model, d.opts.Confidence)
	if err != nil {
		return nil, err
	}
	id, err := NewIdentifier(model, d.a)
	if err != nil {
		return nil, err
	}
	return &Diagnoser{det: det, id: id}, nil
}

// ProcessBatch tests a block of measurements (bins x links) against the
// active model, absorbs the non-anomalous rows into the sketch, and
// schedules a background rebuild when the refit interval has elapsed.
// Alarms carry sequence numbers continuing the per-detector count; a
// deferred rebuild failure is reported alongside the batch's
// detections.
func (d *SketchDetector) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	bins, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("core: batch has %d links, detector expects %d", cols, d.links)
	}
	diags, flags := d.diag.Load().DiagnoseBatch(y)

	d.mu.Lock()
	base := d.processed
	d.processed += bins
	var alarms []Alarm
	for b := 0; b < bins; b++ {
		if flags[b] {
			diag := diags[b]
			diag.Bin = base + b
			alarms = append(alarms, Alarm{Seq: base + b, Diagnosis: diag})
		}
	}
	// Anomalous bins are withheld from the sketch, mirroring the window
	// exclusion of the subspace backend.
	err := d.sk.InsertMasked(y, flags)
	if gerr := d.gate.TakeErrorLocked(); err == nil {
		err = gerr
	}
	var snap *FDSketch
	rank := d.rank
	if d.refitEvery > 0 {
		d.sinceRefit += bins
		if d.sinceRefit >= d.refitEvery && d.gate.TryBeginLocked() {
			d.sinceRefit = 0
			snap = d.sk.Snapshot()
		}
	}
	d.mu.Unlock()

	if snap != nil {
		d.spawnRebuild(snap, rank)
	}
	return alarms, err
}

// spawnRebuild solves a candidate model from the sketch snapshot in a
// background goroutine and swaps it in when it has drifted at least
// DriftTol from the model active at decision time (always, when
// DriftTol is 0).
func (d *SketchDetector) spawnRebuild(snap *FDSketch, rank int) {
	go func() {
		if h := d.refitHook; h != nil {
			h()
		}
		cand, err := d.diagnoserFromSketch(snap, rank)
		swap := err == nil
		if swap && d.driftTol > 0 {
			drift := mat.Sub(
				d.diag.Load().Detector().Model().ResidualOperator(),
				cand.Detector().Model().ResidualOperator(),
			).Frobenius()
			swap = drift >= d.driftTol
		}
		if swap {
			d.diag.Store(cand)
		}
		if err != nil {
			err = fmt.Errorf("core: sketch rebuild: %w", err)
		}
		d.mu.Lock()
		switch {
		case err == nil && swap:
			d.refits++
		case err == nil:
			d.skipped++
		}
		d.gate.EndLocked(err)
		d.mu.Unlock()
	}()
}

// Refit synchronously rebuilds the model from the current sketch state,
// bypassing the drift gate. The eigensolve runs on a snapshot outside
// the lock, so concurrent detection never stalls.
func (d *SketchDetector) Refit() error {
	d.mu.Lock()
	d.gate.BeginLocked()
	snap := d.sk.Snapshot()
	rank := d.rank
	d.mu.Unlock()

	cand, err := d.diagnoserFromSketch(snap, rank)
	if err == nil {
		d.diag.Store(cand)
	} else {
		err = fmt.Errorf("core: sketch rebuild: %w", err)
	}

	d.mu.Lock()
	if err == nil {
		d.refits++
	}
	d.gate.EndLocked(nil)
	d.mu.Unlock()
	return err
}

// Seed resets the sketch to the history block and refits the model with
// a full batch fit on it, re-resolving the rank exactly as construction
// does. It serializes with in-flight rebuilds; the processed-bin
// counter keeps running.
func (d *SketchDetector) Seed(history *mat.Dense) error {
	t, links := history.Dims()
	if links != d.links {
		return fmt.Errorf("core: seed history has %d links, detector expects %d", links, d.links)
	}
	if t < 2 {
		return ErrTooFewSamples
	}
	d.mu.Lock()
	d.gate.BeginLocked()
	d.mu.Unlock()

	diag, err := NewDiagnoser(history, d.a, d.opts)
	var sk *FDSketch
	var rank int
	if err == nil {
		rank = diag.Detector().Model().Rank()
		var ell int
		if ell, err = sketchSizeFor(d.ell, rank); err == nil {
			if sk, err = NewFDSketch(links, ell); err == nil {
				if err = sk.InsertAll(history); err == nil {
					d.diag.Store(diag)
				}
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("core: sketch seed: %w", err)
	}

	d.mu.Lock()
	if err == nil {
		d.sk = sk
		d.rank = rank
		d.sinceRefit = 0
		d.refits++
	}
	d.gate.EndLocked(nil)
	d.mu.Unlock()
	return err
}

// WaitRefits blocks until no rebuild is in flight.
func (d *SketchDetector) WaitRefits() { d.gate.Wait() }

// TakeRefitError returns and clears the deferred error from the last
// failed background rebuild, if any.
func (d *SketchDetector) TakeRefitError() error { return d.gate.TakeError() }

// Stats reports the detector's current state. Refits counts swapped-in
// rebuilds.
func (d *SketchDetector) Stats() ViewStats {
	d.mu.Lock()
	processed, refits := d.processed, d.refits
	d.mu.Unlock()
	return ViewStats{
		Backend:   "sketch",
		Links:     d.links,
		Processed: processed,
		Rank:      d.diag.Load().Detector().Model().Rank(),
		Refits:    refits,
	}
}

// Snapshot serializes the Frequent-Directions buffer (all ell rows,
// occupancy, running mean, inserted count, shed energy), the retained
// rank, the counters, and the exact active model. The refit gate is
// taken first so an in-flight rebuild is waited out, never captured
// mid-swap.
func (d *SketchDetector) Snapshot(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gate.BeginLocked()
	defer d.gate.EndLocked(nil)
	return EncodeSnapshot(w, SnapKindSketch, func(sw *SnapshotWriter) {
		sw.Int(d.links)
		sw.Int(d.ell)
		sw.Matrix(d.sk.b)
		sw.Int(d.sk.used)
		sw.Floats(d.sk.mean)
		sw.Int(d.sk.n)
		sw.F64(d.sk.energy)
		sw.Int(d.rank)
		sw.Int(d.processed)
		sw.Int(d.sinceRefit)
		sw.Int(d.refits)
		sw.Int(d.skipped)
		encodeDiagnoser(sw, d.diag.Load())
	})
}

// Restore replaces the sketch, counters, and active model with a
// snapshot from an identically configured sketch detector. The
// snapshot's sketch size must match the receiver's ell — the buffer
// shape is construction configuration — and the state commits only
// after the whole payload validates.
func (d *SketchDetector) Restore(r io.Reader) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gate.BeginLocked()
	defer d.gate.EndLocked(nil)
	return DecodeSnapshot(r, SnapKindSketch, func(sr *SnapshotReader) error {
		links := sr.Int()
		if sr.Err() == nil && links != d.links {
			return SnapshotMismatchf("snapshot has %d links, detector expects %d", links, d.links)
		}
		ell := sr.Int()
		if sr.Err() == nil && ell != d.ell {
			return SnapshotMismatchf("snapshot sketch size %d, detector uses %d", ell, d.ell)
		}
		b := sr.Matrix()
		used := sr.NonNegInt()
		mean := sr.Floats()
		n := sr.NonNegInt()
		energy := sr.F64()
		rank := sr.NonNegInt()
		processed := sr.NonNegInt()
		sinceRefit := sr.NonNegInt()
		refits := sr.NonNegInt()
		skipped := sr.NonNegInt()
		if err := sr.Err(); err != nil {
			return err
		}
		if b == nil {
			return snapshotFormatf("sketch buffer missing")
		}
		if rows, cols := b.Dims(); rows != d.ell || cols != d.links {
			return snapshotFormatf("sketch buffer is %dx%d, want %dx%d", rows, cols, d.ell, d.links)
		}
		if used > d.ell {
			return snapshotFormatf("sketch occupancy %d over size %d", used, d.ell)
		}
		if len(mean) != d.links {
			return snapshotFormatf("sketch mean has %d entries, want %d", len(mean), d.links)
		}
		if rank < 1 || rank >= d.links {
			return snapshotFormatf("retained rank %d out of [1, %d]", rank, d.links-1)
		}
		diag, err := decodeDiagnoser(sr, d.a, d.links)
		if err != nil {
			return err
		}
		d.sk = &FDSketch{
			m:      d.links,
			ell:    d.ell,
			b:      b,
			used:   used,
			mean:   mean,
			n:      n,
			energy: energy,
		}
		d.rank = rank
		d.processed = processed
		d.sinceRefit = sinceRefit
		d.refits = refits
		d.skipped = skipped
		d.diag.Store(diag)
		return nil
	})
}

// SkippedRebuilds returns how many automatic rebuild intervals solved a
// candidate model but left the active one in place because the subspace
// had drifted less than DriftTol.
func (d *SketchDetector) SkippedRebuilds() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.skipped
}

// Diagnoser returns the currently active model pipeline.
func (d *SketchDetector) Diagnoser() *Diagnoser { return d.diag.Load() }

// SketchSize returns ell, the sketch's row budget.
func (d *SketchDetector) SketchSize() int { return d.ell }
