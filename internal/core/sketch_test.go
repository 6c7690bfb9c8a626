package core

import (
	"math"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// TestFDSketchApproximatesPCA checks the Frequent-Directions guarantee
// on generated traffic: with a sketch a fraction of the stream length,
// the sketch's leading variances and normal subspace land close to the
// exact batch fit's. The tail is allowed to differ — that is the whole
// bargain — but the top of the spectrum, which detection runs on, must
// survive sketching.
func TestFDSketchApproximatesPCA(t *testing.T) {
	_, _, y := testDataset(t, 70, 1008)
	bins, links := y.Dims()

	exact, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	rank := SeparateAxes(exact, DefaultSigma)

	sk, err := NewFDSketch(links, 4*rank)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.InsertAll(y); err != nil {
		t.Fatal(err)
	}
	if sk.Count() != bins {
		t.Fatalf("sketch counted %d rows, want %d", sk.Count(), bins)
	}
	p, span, err := sk.PCA()
	if err != nil {
		t.Fatal(err)
	}
	if span < rank {
		t.Fatalf("sketch spans %d directions, need at least rank %d", span, rank)
	}
	for i := 0; i < rank; i++ {
		rel := math.Abs(p.Variances[i]-exact.Variances[i]) / exact.Variances[i]
		if rel > 0.15 {
			t.Fatalf("leading variance %d off by %.1f%% (sketch %g, exact %g)",
				i, 100*rel, p.Variances[i], exact.Variances[i])
		}
	}
	// Subspace agreement: the projector onto the sketch's top-rank
	// directions must be close to the exact one (principal angles small).
	proj := func(p *PCA) *mat.Dense {
		pm := mat.Zeros(links, rank)
		for j := 0; j < rank; j++ {
			pm.SetCol(j, p.Components.Col(j))
		}
		return mat.Mul(pm, pm.T())
	}
	diff := mat.Sub(proj(p), proj(exact)).Frobenius()
	if diff > 0.2*math.Sqrt(float64(rank)) {
		t.Fatalf("normal-subspace projectors differ by %g in Frobenius norm", diff)
	}
	// Residual variances stay positive (the alpha*I correction), so the
	// Q-statistic threshold is computable from the sketched model.
	if _, err := Build(p, rank); err != nil {
		t.Fatal(err)
	}
}

// TestSketchAgreesWithSubspace is the acceptance check: on the
// trafficgen spike scenario, with the sketch at exactly 2*rank, the
// sketch backend must flag the same bins as the exact windowed subspace
// backend across synchronized refits — in particular every injected
// spike, identified to the right flow. Both run at the seed's 3-sigma
// rank: the sketch keeps its seed rank across refits, while an unpinned
// subspace refit re-resolves it (here to 5, which flags bin 255 too).
// The subspace window is sized for every bin the run feeds it, but
// NewOnlineDetector caps it at the seed history's length.
func TestSketchAgreesWithSubspace(t *testing.T) {
	const historyBins, streamBins = 1008, 288
	spikes := []int{40, 150, 260}
	topo, history, stream, flow := streamDataset(t, 71, historyBins, streamBins, spikes)
	routing := topo.RoutingMatrix()

	seed, err := NewDiagnoser(history, routing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rank := seed.Detector().Model().Rank()
	opts := Options{Rank: rank}
	online, err := NewOnlineDetector(history, routing, OnlineConfig{Window: historyBins + streamBins, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewSketchDetector(history, routing, SketchConfig{SketchSize: 2 * rank, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.Stats().Rank; got != rank {
		t.Fatalf("seed ranks differ: sketch %d, subspace %d", got, rank)
	}

	var onlineAlarms, skAlarms []Alarm
	half := streamBins / 2
	for _, span := range [][2]int{{0, half}, {half, streamBins}} {
		chunk := mat.NewDense(span[1]-span[0], stream.Cols(), stream.RawData()[span[0]*stream.Cols():span[1]*stream.Cols()])
		oa, err := online.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := sd.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		onlineAlarms = append(onlineAlarms, oa...)
		skAlarms = append(skAlarms, sa...)
		// Refit both synchronously at the same point so the models stay
		// in lockstep (background refits would swap at racy times).
		if err := online.Refit(); err != nil {
			t.Fatal(err)
		}
		if err := sd.Refit(); err != nil {
			t.Fatal(err)
		}
	}

	got, want := alarmSeqs(skAlarms), alarmSeqs(onlineAlarms)
	for _, spike := range spikes {
		if !want[spike] {
			t.Fatalf("subspace baseline missed spike %d; flagged %v", spike, want)
		}
		if !got[spike] {
			t.Fatalf("sketch missed spike %d flagged by subspace; sketch %v, subspace %v", spike, got, want)
		}
	}
	// Full agreement on flagged bins, not just spikes: at ell = 2*rank
	// the sketch preserves the normal subspace well enough that the two
	// backends reach the same verdict bin for bin on this trace.
	if len(got) != len(want) {
		t.Fatalf("flagged bins differ: sketch %v, subspace %v", got, want)
	}
	for seq := range want {
		if !got[seq] {
			t.Fatalf("sketch missed bin %d flagged by subspace", seq)
		}
	}
	for _, a := range skAlarms {
		if a.Seq == spikes[0] && a.Flow != flow {
			t.Fatalf("spike identified flow %d want %d", a.Flow, flow)
		}
	}
}

func TestSketchBackgroundRebuildAndDriftGate(t *testing.T) {
	const historyBins, streamBins = 504, 240
	topo, history, stream, _ := streamDataset(t, 72, historyBins, streamBins, nil)
	routing := topo.RoutingMatrix()

	always, err := NewSketchDetector(history, routing, SketchConfig{RefitEvery: 60})
	if err != nil {
		t.Fatal(err)
	}
	gated, err := NewSketchDetector(history, routing, SketchConfig{RefitEvery: 60, DriftTol: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*SketchDetector{always, gated} {
		for b := 0; b < streamBins; b += 60 {
			chunk := mat.NewDense(60, stream.Cols(), stream.RawData()[b*stream.Cols():(b+60)*stream.Cols()])
			if _, err := d.ProcessBatch(chunk); err != nil {
				t.Fatal(err)
			}
			d.WaitRefits()
		}
		if err := d.TakeRefitError(); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Processed; got != streamBins {
			t.Fatalf("processed %d want %d", got, streamBins)
		}
	}
	if always.Stats().Refits == 0 {
		t.Fatal("DriftTol=0 detector never swapped a rebuilt model")
	}
	if gated.Stats().Refits != 0 {
		t.Fatalf("gated detector swapped %d models despite stationary traffic", gated.Stats().Refits)
	}
	if gated.SkippedRebuilds() == 0 {
		t.Fatal("gated detector never exercised the drift gate")
	}
}

func TestSketchSeedAndValidation(t *testing.T) {
	_, history, stream, _ := streamDataset(t, 73, 504, 60, nil)
	routing := topology.Abilene().RoutingMatrix()
	d, err := NewSketchDetector(history, routing, SketchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessBatch(mat.Zeros(4, 3)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	if _, err := d.ProcessBatch(stream); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if err := d.Seed(mat.Zeros(10, 3)); err == nil {
		t.Fatal("mis-sized seed accepted")
	}
	if err := d.Seed(history); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Processed != before.Processed {
		t.Fatalf("Seed reset the processed counter: %d -> %d", before.Processed, after.Processed)
	}
	if after.Refits != before.Refits+1 {
		t.Fatalf("Seed did not count as a refit: %d -> %d", before.Refits, after.Refits)
	}
}

func TestSketchSizeValidation(t *testing.T) {
	_, history, _, _ := streamDataset(t, 74, 504, 2, nil)
	routing := topology.Abilene().RoutingMatrix()
	if _, err := NewSketchDetector(history, routing, SketchConfig{SketchSize: 3}); err == nil {
		t.Fatal("sketch size 3 accepted")
	}
	d, err := NewSketchDetector(history, routing, SketchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rank := d.Stats().Rank
	if rank > 1 {
		if _, err := NewSketchDetector(history, routing, SketchConfig{SketchSize: 2*rank - 1}); err == nil {
			t.Fatalf("sketch size %d < 2*rank accepted", 2*rank-1)
		}
	}
	if d.SketchSize() < 2*rank {
		t.Fatalf("defaulted sketch size %d below 2*rank (%d)", d.SketchSize(), 2*rank)
	}
}

// streamDataset splits a generated trace into a seed history and a
// continuation stream with spikes injected at the given stream offsets
// (flow 9, 9e7 bytes — comfortably detectable on Abilene).
func streamDataset(t *testing.T, seed int64, historyBins, streamBins int, spikes []int) (*topology.Topology, *mat.Dense, *mat.Dense, int) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	const flow = 9
	for _, s := range spikes {
		x.Set(historyBins+s, flow, x.At(historyBins+s, flow)+9e7)
	}
	y := traffic.LinkLoads(topo, x)
	links := topo.NumLinks()
	history := mat.Zeros(historyBins, links)
	for b := 0; b < historyBins; b++ {
		history.SetRow(b, y.RowView(b))
	}
	stream := mat.Zeros(streamBins, links)
	for b := 0; b < streamBins; b++ {
		stream.SetRow(b, y.RowView(historyBins+b))
	}
	return topo, history, stream, flow
}

func alarmSeqs(alarms []Alarm) map[int]bool {
	out := make(map[int]bool, len(alarms))
	for _, a := range alarms {
		out[a.Seq] = true
	}
	return out
}
