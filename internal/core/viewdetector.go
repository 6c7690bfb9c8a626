package core

import (
	"io"

	"netanomaly/internal/mat"
)

// ViewStats is a point-in-time snapshot of a streaming detector's state,
// uniform across backends so the engine and its callers can report on a
// shard without knowing which implementation is behind it.
type ViewStats struct {
	// Backend names the implementation ("subspace", "sketch",
	// "multiflow", "ewma", ...).
	Backend string
	// Links is the expected measurement-vector width. For backends that
	// consume several stacked metric blocks this is the total stacked
	// width, not the per-metric link count.
	Links int
	// Processed is the number of measurement bins seen since creation.
	Processed int
	// Rank is the normal-subspace dimension of the active model, or 0
	// when the backend has no single meaningful rank (e.g. one forecaster
	// per link).
	Rank int
	// Refits counts completed model rebuilds (successful fits swapped in
	// after seeding; skipped drift-gated rebuilds do not count).
	Refits int
}

// ViewDetector is the streaming detection contract an engine shard runs
// against: the subspace method and its Section 7 variants —
// Frequent-Directions sketching, multi-metric voting — and the forecast
// baselines all present this surface, so a
// Monitor can mix backends freely.
//
// Implementations must be safe for one ProcessBatch caller at a time
// (the engine guarantees this: queued batches run through the per-shard
// FIFO, and synchronous Monitor.ProcessBatch serializes with it on a
// per-shard lock) with Refit, WaitRefits, TakeRefitError and Stats
// callable concurrently from other goroutines.
// Detection must not block on model fitting: fits run on background
// goroutines and swap the active model atomically, and a failed
// background fit keeps the previous model in force, surfacing its error
// on a later ProcessBatch or TakeRefitError call.
type ViewDetector interface {
	// Seed (re)fits the model from a history block (bins x Links),
	// replacing the windowed state a later Refit would fit on. The
	// processed-bin counter keeps running; sequence numbers of later
	// alarms are unaffected. Seed serializes with in-flight refits.
	Seed(history *mat.Dense) error
	// ProcessBatch tests a block of measurements (bins x Links) against
	// the active model and returns the rows that alarm, with sequence
	// numbers continuing the per-detector count. Alarms are returned
	// even when err is non-nil (a deferred refit failure reports
	// alongside valid detections).
	ProcessBatch(y *mat.Dense) ([]Alarm, error)
	// Refit synchronously rebuilds the model from current state. It
	// serializes with background refits but must not block concurrent
	// detection.
	Refit() error
	// WaitRefits blocks until no model fit is in flight.
	WaitRefits()
	// TakeRefitError returns and clears the deferred error from the last
	// failed background refit, if any.
	TakeRefitError() error
	// Stats reports the detector's current state.
	Stats() ViewStats
	// Snapshot serializes the detector's portable state — everything a
	// Restore on an identically configured detector needs to continue
	// the alarm stream bin-for-bin: sliding windows, the active model,
	// forecaster recursions, processed/refit counters — as one NAMS
	// envelope. It serializes with in-flight model fits (waiting any
	// out through the refit gate), so it never captures a half-swapped
	// model, and it must not block concurrent Stats calls forever.
	Snapshot(w io.Writer) error
	// Restore replaces the detector's mutable state with a snapshot
	// taken from an identically configured detector of the same kind.
	// A snapshot of a different backend kind or link count is rejected
	// (wrapping ErrSnapshotMismatch) without touching the receiver;
	// corrupt input wraps ErrSnapshotFormat and truncated input wraps
	// io.ErrUnexpectedEOF. Construction-time configuration — routing
	// matrix, refit cadence, thresholds — stays the receiver's own.
	Restore(r io.Reader) error
}
