package engine

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
)

// halves splits a fixture stream into its two 64-bin halves.
func halves(f backendFixture) (*mat.Dense, *mat.Dense) {
	cols := f.stream.Cols()
	half := confStreamBins / 2
	first := mat.NewDense(half, cols, f.stream.RawData()[:half*cols])
	second := mat.NewDense(confStreamBins-half, cols, f.stream.RawData()[half*cols:])
	return first, second
}

// TestSnapshotResumeConformance is the conformance battery's
// checkpoint leg, run for all six backends: processing half the
// stream, snapshotting, restoring into a freshly constructed detector
// and processing the rest must be indistinguishable — alarms, Seq and
// Stats — from the uninterrupted run. It also pins the canonical
// encoding: a restored detector re-snapshots byte-for-byte.
func TestSnapshotResumeConformance(t *testing.T) {
	const seed = 140
	control := conformanceFixtures(t, seed)
	subject := conformanceFixtures(t, seed)
	target := conformanceFixtures(t, seed)
	for i := range control {
		cf, sf, tf := control[i], subject[i], target[i]
		t.Run(cf.name, func(t *testing.T) {
			first, second := halves(cf)

			wantFirst, err := cf.det.ProcessBatch(first)
			if err != nil {
				t.Fatal(err)
			}
			wantTail, err := cf.det.ProcessBatch(second)
			if err != nil {
				t.Fatal(err)
			}
			want := append(append([]core.Alarm{}, wantFirst...), wantTail...)

			gotFirst, err := sf.det.ProcessBatch(first)
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := sf.det.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if err := tf.det.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := tf.det.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), again.Bytes()) {
				t.Fatalf("restore→snapshot not byte-identical: %d vs %d bytes", snap.Len(), again.Len())
			}

			gotTail, err := tf.det.ProcessBatch(second)
			if err != nil {
				t.Fatal(err)
			}
			got := append(append([]core.Alarm{}, gotFirst...), gotTail...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed alarm stream diverged:\n got %+v\nwant %+v", got, want)
			}
			if gs, ws := tf.det.Stats(), cf.det.Stats(); gs != ws {
				t.Fatalf("resumed stats %+v, uninterrupted %+v", gs, ws)
			}
			spiked := false
			for _, a := range want {
				if a.Seq >= cf.spikeLo && a.Seq <= cf.spikeHi {
					spiked = true
				}
			}
			if !spiked {
				t.Fatal("spike missing from the control run; the equality proved nothing")
			}
		})
	}
}

// migrationIngest pushes one chunk through the view and returns the
// alarms it raised, in order.
func migrationIngest(t *testing.T, m *Monitor, view string, chunk *mat.Dense) []core.Alarm {
	t.Helper()
	if err := m.Ingest(view, chunk); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	var out []core.Alarm
	for _, a := range m.TakeAlarms() {
		out = append(out, a.Alarm)
	}
	return out
}

// TestViewMigration is the tentpole's acceptance test: a view
// checkpointed on one monitor and restored into an equivalently
// configured view on another must continue the alarm stream
// bin-for-bin — sequence offsets included — exactly as the monitor
// that was never interrupted. Run for all six backends, under -race
// in CI.
func TestViewMigration(t *testing.T) {
	const seed = 141
	control := conformanceFixtures(t, seed)
	subject := conformanceFixtures(t, seed)
	target := conformanceFixtures(t, seed)
	for i := range control {
		cf, sf, tf := control[i], subject[i], target[i]
		t.Run(cf.name, func(t *testing.T) {
			first, second := halves(cf)
			cfgOne := Config{Workers: 1, BatchSize: 32}

			mc := NewMonitor(cfgOne)
			defer mc.Close()
			if err := mc.AddDetectorView("v", cf.det); err != nil {
				t.Fatal(err)
			}
			want := migrationIngest(t, mc, "v", first)
			want = append(want, migrationIngest(t, mc, "v", second)...)

			ma := NewMonitor(cfgOne)
			if err := ma.AddDetectorView("v", sf.det); err != nil {
				t.Fatal(err)
			}
			got := migrationIngest(t, ma, "v", first)
			var ckpt bytes.Buffer
			if err := ma.CheckpointView("v", &ckpt); err != nil {
				t.Fatal(err)
			}
			ma.Close()

			mb := NewMonitor(cfgOne)
			defer mb.Close()
			if err := mb.AddDetectorView("v", tf.det); err != nil {
				t.Fatal(err)
			}
			if err := mb.RestoreView("v", bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			got = append(got, migrationIngest(t, mb, "v", second)...)

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("migrated alarm stream diverged:\n got %+v\nwant %+v", got, want)
			}
			stats, err := mb.ViewStats("v")
			if err != nil {
				t.Fatal(err)
			}
			if stats.Processed != confStreamBins {
				t.Fatalf("migrated view processed %d, want %d", stats.Processed, confStreamBins)
			}
			qs, err := mb.QueueStats("v")
			if err != nil {
				t.Fatal(err)
			}
			if qs.EnqueuedBins != int64(confStreamBins) {
				t.Fatalf("migrated queue counters did not carry over: %+v", qs)
			}
			spiked := false
			for _, a := range want {
				if a.Seq >= cf.spikeLo && a.Seq <= cf.spikeHi {
					spiked = true
				}
			}
			if !spiked {
				t.Fatal("spike missing from the control run; the equality proved nothing")
			}
		})
	}
}

// TestMonitorCheckpointRestore pins the whole-monitor path: Checkpoint
// on a multi-view monitor, NewMonitorFromCheckpoint through a factory,
// then resumed ingest — view names, per-view counters, and post-restore
// alarm Seq (and flow attribution) must all be truthful. The spike sits
// in the second half, so it is detected by the restored monitor.
func TestMonitorCheckpointRestore(t *testing.T) {
	topo, history, stream, flow := viewData(t, 160, 1008, 128, 100)
	routing := topo.RoutingMatrix()
	links := history.Cols()
	cols := stream.Cols()
	first := mat.NewDense(64, cols, stream.RawData()[:64*cols])
	second := mat.NewDense(64, cols, stream.RawData()[64*cols:])

	build := func(kind string) (core.ViewDetector, error) {
		switch kind {
		case "subspace":
			return core.NewOnlineDetector(history, routing, core.OnlineConfig{Window: history.Rows()})
		case "ewma":
			return forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA})
		default:
			return nil, errors.New("unexpected kind " + kind)
		}
	}
	cfg := Config{Workers: 2, BatchSize: 32}
	ma := NewMonitor(cfg)
	for _, kv := range [][2]string{{"sub", "subspace"}, {"fore", "ewma"}} {
		det, err := build(kv[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ma.AddDetectorView(kv[0], det); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []string{"sub", "fore"} {
		if err := ma.Ingest(v, first); err != nil {
			t.Fatal(err)
		}
	}
	ma.Flush()
	ma.TakeAlarms()
	wantQS, err := ma.QueueStats("sub")
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := ma.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	ma.Close()

	factory := func(name, kind string, gotLinks int) (core.ViewDetector, error) {
		if gotLinks != links {
			t.Fatalf("factory offered %d links, want %d", gotLinks, links)
		}
		return build(kind)
	}
	mb, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(ckpt.Bytes()), factory)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if got := mb.Views(); len(got) != 2 {
		t.Fatalf("restored monitor has views %v", got)
	}
	for _, v := range []string{"sub", "fore"} {
		stats, err := mb.ViewStats(v)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Processed != 64 {
			t.Fatalf("restored view %q processed %d, want 64", v, stats.Processed)
		}
	}
	gotQS, err := mb.QueueStats("sub")
	if err != nil {
		t.Fatal(err)
	}
	if gotQS.EnqueuedBins != wantQS.EnqueuedBins || gotQS.DepthHighWater != wantQS.DepthHighWater ||
		gotQS.DroppedBins != wantQS.DroppedBins || gotQS.RejectedBins != wantQS.RejectedBins {
		t.Fatalf("queue counters did not survive the checkpoint: got %+v want %+v", gotQS, wantQS)
	}

	for _, v := range []string{"sub", "fore"} {
		if err := mb.Ingest(v, second); err != nil {
			t.Fatal(err)
		}
	}
	mb.Flush()
	if errs := mb.Errs(); len(errs) != 0 {
		t.Fatalf("restored monitor errors: %v", errs)
	}
	spiked := false
	for _, a := range mb.TakeAlarms() {
		if a.View == "sub" && a.Seq == 100 {
			spiked = true
			if a.Flow != flow {
				t.Fatalf("post-restore spike attributed to flow %d, want %d", a.Flow, flow)
			}
		}
	}
	if !spiked {
		t.Fatal("restored monitor missed the spike, or its Seq offset drifted")
	}

	// A truncated checkpoint must classify as truncation, and a factory
	// failure must surface, closing the partial monitor either way.
	if _, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(ckpt.Bytes()[:ckpt.Len()/2]), factory); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, core.ErrSnapshotFormat) {
		t.Fatalf("truncated checkpoint: %v", err)
	}
	bad := func(name, kind string, links int) (core.ViewDetector, error) {
		return nil, errors.New("no detector for you")
	}
	if _, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(ckpt.Bytes()), bad); err == nil {
		t.Fatal("factory failure did not fail the restore")
	}
}

// smallPatternHistory builds a tiny non-degenerate history for the
// rejection and race tests.
func smallPatternHistory(bins, links int) *mat.Dense {
	h := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			h.Set(i, j, 100+10*float64((i*7+j*3)%13))
		}
	}
	return h
}

// TestRestoreViewRejections pins the engine-level mismatch checks: a
// view envelope restored into a view with a different backend kind or
// a different link count must fail with ErrSnapshotMismatch and leave
// the target view's state untouched.
func TestRestoreViewRejections(t *testing.T) {
	mkMonitor := func(det core.ViewDetector) *Monitor {
		m := NewMonitor(Config{Workers: 1, BatchSize: 16})
		if err := m.AddDetectorView("v", det); err != nil {
			t.Fatal(err)
		}
		return m
	}
	history6 := smallPatternHistory(64, 6)
	det6, err := core.NewOnlineDetector(history6, mat.Identity(6), core.OnlineConfig{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := mkMonitor(det6)
	defer src.Close()
	var ckpt bytes.Buffer
	if err := src.CheckpointView("v", &ckpt); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong links", func(t *testing.T) {
		history4 := smallPatternHistory(64, 4)
		det4, err := core.NewOnlineDetector(history4, mat.Identity(4), core.OnlineConfig{Window: 64})
		if err != nil {
			t.Fatal(err)
		}
		m := mkMonitor(det4)
		defer m.Close()
		if err := m.RestoreView("v", bytes.NewReader(ckpt.Bytes())); !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Fatalf("6-link view envelope restored into 4-link view: %v", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		fore, err := forecast.NewDetector(history6, forecast.Config{Kind: forecast.EWMA})
		if err != nil {
			t.Fatal(err)
		}
		m := mkMonitor(fore)
		defer m.Close()
		if err := m.RestoreView("v", bytes.NewReader(ckpt.Bytes())); !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Fatalf("subspace view envelope restored into ewma view: %v", err)
		}
		// The failed restore must not have corrupted the target: it
		// still processes and still checkpoints.
		if _, err := m.QueueStats("v"); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := m.CheckpointView("v", &out); err != nil {
			t.Fatalf("view unusable after rejected restore: %v", err)
		}
	})
	// An old checkpoint of a retired backend is well-formed, just not
	// this view's state: rewriting the nested detector envelope's kind
	// byte to a reserved value must be refused as a mismatch.
	for _, retired := range []struct {
		name string
		kind byte
	}{
		{"retired multiscale kind", core.SnapKindMultiscale},
		{"retired incremental kind", core.SnapKindIncremental},
		{"retired holtwinters kind", core.SnapKindHoltWinters},
	} {
		t.Run(retired.name, func(t *testing.T) {
			old := bytes.Clone(ckpt.Bytes())
			inner := 4 + bytes.Index(old[4:], []byte("NAMS"))
			if inner < 4 {
				t.Fatal("view envelope nests no detector envelope")
			}
			old[inner+5] = retired.kind
			det, err := core.NewOnlineDetector(history6, mat.Identity(6), core.OnlineConfig{Window: 64})
			if err != nil {
				t.Fatal(err)
			}
			m := mkMonitor(det)
			defer m.Close()
			err = m.RestoreView("v", bytes.NewReader(old))
			if !errors.Is(err, core.ErrSnapshotMismatch) || errors.Is(err, core.ErrSnapshotFormat) {
				t.Fatalf("%s envelope restored into subspace view: %v", core.KindName(retired.kind), err)
			}
		})
	}
	t.Run("retired holtwinters triage", func(t *testing.T) {
		mkHybrid := func() core.ViewDetector {
			triage, err := forecast.NewDetector(history6, forecast.Config{Kind: forecast.EWMA})
			if err != nil {
				t.Fatal(err)
			}
			identify, err := core.NewOnlineDetector(history6, mat.Identity(6), core.OnlineConfig{Window: 64})
			if err != nil {
				t.Fatal(err)
			}
			h, err := core.NewHybridDetector(triage, identify, history6, core.HybridConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		hsrc := mkMonitor(mkHybrid())
		defer hsrc.Close()
		var hck bytes.Buffer
		if err := hsrc.CheckpointView("v", &hck); err != nil {
			t.Fatal(err)
		}
		// View, hybrid and triage envelopes nest in that order; the
		// triage stage's is the first carrying the ewma kind byte.
		old := hck.Bytes()
		at := -1
		for i := 0; i+6 <= len(old); i++ {
			if bytes.HasPrefix(old[i:], []byte("NAMS")) && old[i+5] == core.SnapKindEWMA {
				at = i
				break
			}
		}
		if at < 0 {
			t.Fatal("hybrid envelope nests no ewma triage envelope")
		}
		old[at+5] = core.SnapKindHoltWinters
		m := mkMonitor(mkHybrid())
		defer m.Close()
		err := m.RestoreView("v", bytes.NewReader(old))
		if !errors.Is(err, core.ErrSnapshotMismatch) || errors.Is(err, core.ErrSnapshotFormat) {
			t.Fatalf("hybrid with holtwinters triage restored into ewma-triage hybrid: %v", err)
		}
	})
}

// TestCheckpointDuringRefit pins the satellite fix: a checkpoint taken
// while a background refit is in flight must wait the refit out through
// the detector's refit gate — it may neither deadlock nor serialize a
// half-swapped model. Run under -race in CI.
func TestCheckpointDuringRefit(t *testing.T) {
	const bins, links = 40, 6
	history := smallPatternHistory(bins, links)
	det, err := core.NewOnlineDetector(history, mat.Identity(links), core.OnlineConfig{Window: bins, RefitEvery: bins})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	det.SetRefitHook(func() {
		close(started)
		<-release
	})

	m := NewMonitor(Config{Workers: 1, BatchSize: bins})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	// Re-ingesting the history pattern keeps the window non-degenerate,
	// so the triggered refit succeeds while the hook holds it open.
	if err := m.Ingest("v", history); err != nil {
		t.Fatal(err)
	}
	<-started

	var ckpt bytes.Buffer
	snapped := make(chan error, 1)
	go func() { snapped <- m.CheckpointView("v", &ckpt) }()
	select {
	case err := <-snapped:
		t.Fatalf("checkpoint completed while the refit was still swapping (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-snapped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint deadlocked against the background refit")
	}

	// The envelope serialized the post-refit state: restoring it into a
	// fresh same-construction view must succeed and carry the refit.
	fresh, err := core.NewOnlineDetector(history, mat.Identity(links), core.OnlineConfig{Window: bins, RefitEvery: bins})
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMonitor(Config{Workers: 1, BatchSize: bins})
	defer mb.Close()
	if err := mb.AddDetectorView("v", fresh); err != nil {
		t.Fatal(err)
	}
	if err := mb.RestoreView("v", bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	stats, err := mb.ViewStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != bins || stats.Refits != 1 {
		t.Fatalf("restored view stats %+v, want processed %d and 1 refit", stats, bins)
	}
}
