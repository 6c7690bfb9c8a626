package eval

import (
	"reflect"
	"strings"
	"testing"

	"netanomaly/internal/topology"
)

// scorecardTestConfig keeps the matrix cheap: a 256-bin history and the
// minimum scenario stream.
func scorecardTestConfig() ScorecardConfig {
	return ScorecardConfig{Seed: 3, HistoryBins: 256, StreamBins: 128, BatchSize: 32}
}

func TestRunScorecardShapeAndDeterminism(t *testing.T) {
	topo := topology.Abilene()
	card, err := RunScorecard(topo, scorecardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(card.Backends) != 6 {
		t.Fatalf("scorecard has %d backends, want 6", len(card.Backends))
	}
	if len(card.Scenarios) < 5 {
		t.Fatalf("scorecard has %d scenarios, want >= 5", len(card.Scenarios))
	}
	if want := len(card.Backends) * len(card.Scenarios); len(card.Cells) != want {
		t.Fatalf("scorecard has %d cells, want %d", len(card.Cells), want)
	}
	for _, b := range card.Backends {
		for _, s := range card.Scenarios {
			c := card.Cell(b, s)
			if c == nil {
				t.Fatalf("cell (%s, %s) missing", b, s)
			}
			if s != "flashcrowd" && c.TrueAnomalies == 0 {
				t.Fatalf("cell (%s, %s) has no true anomalies", b, s)
			}
			if s == "flashcrowd" && c.TrueAnomalies != 0 {
				t.Fatalf("flashcrowd is a control: cell (%s, %s) claims %d truths", b, s, c.TrueAnomalies)
			}
		}
	}
	if card.Cell("subspace", "nonesuch") != nil {
		t.Fatal("Cell must return nil for unknown scenario")
	}
	again, err := RunScorecard(topo, scorecardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(card, again) {
		t.Fatal("RunScorecard is not deterministic in its seed")
	}
}

// TestScorecardQualitativeStructure pins the matrix's load-bearing
// asymmetries: the scan lives only in flow counts, so the multi-metric
// backend must catch and attribute it while the byte-only subspace
// backend stays blind; the concentrated flood must be caught and
// attributed by the subspace backend.
func TestScorecardQualitativeStructure(t *testing.T) {
	card, err := RunScorecard(topology.Abilene(), scorecardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	mfScan := card.Cell("multiflow", "scan")
	if mfScan.DetectionRate < 0.5 {
		t.Fatalf("multiflow detects %.2f of the scan, want >= 0.5", mfScan.DetectionRate)
	}
	if mfScan.Identified == 0 {
		t.Fatal("multiflow must attribute the scanned flow")
	}
	// The scan moves no bytes, so the byte-only subspace backend can
	// only hit its labels by background-alarm coincidence — far below
	// the multi-metric backend's rate.
	if ssScan := card.Cell("subspace", "scan"); ssScan.DetectionRate >= mfScan.DetectionRate/2 {
		t.Fatalf("byte-only subspace backend detects %.2f of the scan (multiflow %.2f); the scan moves no bytes",
			ssScan.DetectionRate, mfScan.DetectionRate)
	}
	ssFlood := card.Cell("subspace", "synflood")
	if ssFlood.DetectionRate < 0.9 || ssFlood.IdentificationRate < 0.9 {
		t.Fatalf("subspace on synflood: detection %.2f identification %.2f, want >= 0.9",
			ssFlood.DetectionRate, ssFlood.IdentificationRate)
	}
	// Incident-level structure: the flood is one sustained window, so a
	// clean detector's alarms must condense to exactly one incident; the
	// flashcrowd control raises none; the beacon's bursts are spaced
	// wider than the quiet period, so they must NOT merge into one.
	if c := card.Cell("fourier", "synflood"); c.Incidents != 1 {
		t.Fatalf("fourier on synflood: %d alarmed bins became %d incidents, want exactly 1",
			c.Detected+c.FalseAlarms, c.Incidents)
	}
	for _, b := range []string{"ewma", "fourier", "hybrid"} {
		if c := card.Cell(b, "flashcrowd"); c.Incidents != 0 {
			t.Fatalf("%s on the flashcrowd control opened %d incidents, want 0", b, c.Incidents)
		}
	}
	if c := card.Cell("ewma", "beacon"); c.Incidents <= 1 {
		t.Fatalf("ewma on beacon condensed to %d incidents; spaced bursts must stay separate", c.Incidents)
	}
}

func TestCompareScorecards(t *testing.T) {
	card, err := RunScorecard(topology.Abilene(), scorecardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	tol := DefaultScorecardTolerance()
	if regs := CompareScorecards(card, card, tol); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}

	// A detection drop beyond tolerance must be reported.
	tampered := *card
	tampered.Cells = append([]ScorecardCell(nil), card.Cells...)
	cell := &tampered.Cells[0]
	cell.DetectionRate -= tol.Detection + 0.05
	regs := CompareScorecards(card, &tampered, tol)
	if len(regs) != 1 || !strings.Contains(regs[0], "detection rate") {
		t.Fatalf("detection drop not flagged: %v", regs)
	}
	// Drift within tolerance passes.
	within := *card
	within.Cells = append([]ScorecardCell(nil), card.Cells...)
	within.Cells[0].DetectionRate -= tol.Detection / 2
	if regs := CompareScorecards(card, &within, tol); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}
	// A false-alarm rise and an identification drop are regressions too.
	noisy := *card
	noisy.Cells = append([]ScorecardCell(nil), card.Cells...)
	noisy.Cells[1].FalseAlarmRate += tol.FalseAlarm + 0.05
	noisy.Cells[2].IdentificationRate -= tol.Identification + 0.05
	regs = CompareScorecards(card, &noisy, tol)
	if len(regs) != 2 {
		t.Fatalf("false-alarm/identification regressions not flagged: %v", regs)
	}
	// Fragmentation — the incident count rising beyond tolerance — is a
	// regression; a rise within the slack passes.
	frag := *card
	frag.Cells = append([]ScorecardCell(nil), card.Cells...)
	frag.Cells[3].Incidents += tol.Incidents + 2
	regs = CompareScorecards(card, &frag, tol)
	if len(regs) != 1 || !strings.Contains(regs[0], "fragmentation") {
		t.Fatalf("fragmentation not flagged: %v", regs)
	}
	frag.Cells[3].Incidents = card.Cells[3].Incidents + tol.Incidents
	if regs := CompareScorecards(card, &frag, tol); len(regs) != 0 {
		t.Fatalf("within-tolerance incident rise flagged: %v", regs)
	}
	// A cell missing from the current scorecard is a regression, not a
	// silent pass.
	shrunk := *card
	shrunk.Cells = append([]ScorecardCell(nil), card.Cells[1:]...)
	regs = CompareScorecards(card, &shrunk, tol)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing cell not flagged: %v", regs)
	}
	// Improvements pass silently: a baseline with a worse cell than
	// current is no regression.
	if regs := CompareScorecards(&tampered, card, tol); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}
