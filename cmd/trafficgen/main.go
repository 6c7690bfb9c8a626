// Command trafficgen generates a synthetic network-wide traffic dataset
// and writes the OD-flow and link-load matrices, optionally with
// injected volume anomalies (one "flow,bin,delta" triple per -anomaly
// flag). The link matrix is the input cmd/diagnose and cmd/ingestd
// consume; the OD CSV is ground truth for validation.
//
// With -metrics the link CSV additionally carries the Section 7.2
// metric series (IP-flow counts and mean packet size) column-stacked
// after the byte counts — the input cmd/diagnose consumes with
// -detector multiflow.
//
// -scenario composes a labeled attack scenario from the scenario
// library (beacon, scan, synflood, flashcrowd, exfil, lateral) onto
// the generated traffic: the injection starts at -scenario-start
// (default 1008, so the first week stays clean history for seeding
// detectors) and every labeled bin is echoed on the banner with its
// attributed flow — the ground truth an e2e check greps against.
//
// -format selects the link matrix encoding: csv (default) or binary,
// the compact wire format cmd/ingestd and diagnose -format binary
// consume (no column names; the topology defines the link order).
// Binary loads are rounded to whole bytes, matching what a real SNMP
// counter reports; the CSV path keeps the model's full precision.
// -batch-frames n upgrades the binary output to wire format v2 (n bins
// per batch frame) and -codec picks its payload encoding (raw or xor);
// -skip drops the leading bins, emitting the post-history tail of the
// same deterministic trace as a standalone stream. With -links - the
// link matrix goes to stdout and the banners to stderr, so a generator
// can feed an ingest server with no file in between:
//
//	trafficgen -topology abilene -seed 42 -bins 1008 \
//	    -anomaly 24,500,9e7 -od od.csv -links links.csv
//	trafficgen -format binary -links - | ingestd -stdin -history week.bin
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"netanomaly"
	"netanomaly/internal/topology"
)

type anomalyFlags []netanomaly.Anomaly

func (a *anomalyFlags) String() string { return fmt.Sprint(*a) }

func (a *anomalyFlags) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return fmt.Errorf("anomaly %q: want flow,bin,delta", s)
	}
	flow, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("anomaly flow: %w", err)
	}
	bin, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("anomaly bin: %w", err)
	}
	delta, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("anomaly delta: %w", err)
	}
	*a = append(*a, netanomaly.Anomaly{Flow: flow, Bin: bin, Delta: delta})
	return nil
}

func main() {
	var anomalies anomalyFlags
	topoName := flag.String("topology", "abilene", "abilene, sprint, or synthetic:<pops>:<edges>")
	seed := flag.Int64("seed", 1, "generator seed")
	bins := flag.Int("bins", 1008, "number of 10-minute bins")
	total := flag.Float64("total", 0, "network-wide mean bytes per bin (0 = default)")
	odPath := flag.String("od", "", "write OD-flow matrix CSV here (optional)")
	linksPath := flag.String("links", "links.csv", "write link-load matrix here (- for stdout)")
	format := flag.String("format", "csv", "link matrix encoding: csv or binary")
	codecName := flag.String("codec", "raw", "binary v2 payload codec: raw or xor (with -batch-frames)")
	batchFrames := flag.Int("batch-frames", 0, "binary wire format v2: bins per batch frame (0 = v1 per-bin frames)")
	skip := flag.Int("skip", 0, "drop the first n bins from the link matrix output (emit a post-history stream tail)")
	withMetrics := flag.Bool("metrics", false, "stack flow-count and packet-size metrics after the byte columns (for diagnose -detector multiflow)")
	scenarioName := flag.String("scenario", "", "compose a labeled attack scenario (beacon, scan, synflood, flashcrowd, exfil, lateral)")
	scenarioStart := flag.Int("scenario-start", 1008, "first attackable bin for -scenario; earlier bins stay clean history")
	flag.Var(&anomalies, "anomaly", "inject flow,bin,delta (repeatable)")
	flag.Parse()

	topo, err := topology.ParseSeeded(*topoName, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := netanomaly.DefaultTrafficConfig(*seed)
	cfg.Bins = *bins
	if *total > 0 {
		cfg.TotalMeanRate = *total
	}
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		fatal(err)
	}
	netanomaly.InjectAnomalies(od, anomalies)
	var scenario *netanomaly.ScenarioResult
	if *scenarioName != "" {
		sc, err := netanomaly.ScenarioByName(*scenarioName)
		if err != nil {
			fatal(err)
		}
		if scenario, err = sc.Apply(topo, od, *scenarioStart, *seed); err != nil {
			fatal(err)
		}
		if len(scenario.FlowCountAnomalies) > 0 && !*withMetrics {
			fmt.Fprintf(os.Stderr, "trafficgen: note: the %s scenario injects only IP-flow counts; without -metrics the byte-only output carries no trace of it\n", *scenarioName)
		}
	}
	links := netanomaly.LinkLoads(topo, od)
	metricNote := ""
	if *withMetrics {
		ms, err := netanomaly.DeriveLinkMetrics(topo, od, netanomaly.LinkMetricConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		if scenario != nil {
			for _, fa := range scenario.FlowCountAnomalies {
				ms.InjectFlowCountAnomaly(topo, fa.Flow, fa.Bin, fa.Extra)
			}
		}
		if links, err = ms.Stacked(); err != nil {
			fatal(err)
		}
		metricNote = " x 3 metrics (bytes, flows, pktsize)"
	}
	wire := netanomaly.WireFormat{}
	if *batchFrames > 0 {
		codec, err := netanomaly.ParseCodec(*codecName)
		if err != nil {
			fatal(err)
		}
		wire = netanomaly.WireFormat{Version: 2, Codec: codec, BatchBins: *batchFrames}
	} else if *codecName != "raw" {
		fatal(fmt.Errorf("-codec %s requires -batch-frames > 0 (the v1 format has no codec byte)", *codecName))
	}
	outBins := *bins
	if *skip > 0 {
		rows, cols := links.Dims()
		if *skip >= rows {
			fatal(fmt.Errorf("-skip %d drops the whole %d-bin matrix", *skip, rows))
		}
		links = netanomaly.NewMatrix(rows-*skip, cols, links.RawData()[*skip*cols:])
		outBins = rows - *skip
	}

	// With the link matrix on stdout the banners move to stderr, so a
	// pipe into ingestd carries only the measurement stream.
	banner := os.Stdout
	if *linksPath == "-" {
		banner = os.Stderr
	}
	if *odPath != "" {
		names := make([]string, topo.NumFlows())
		for f := range names {
			names[f] = topo.FlowName(f)
		}
		if err := netanomaly.SaveMatrixCSV(*odPath, od, names); err != nil {
			fatal(err)
		}
		fmt.Fprintf(banner, "wrote %d x %d OD matrix to %s\n", *bins, topo.NumFlows(), *odPath)
	}
	linkNames := make([]string, topo.NumLinks())
	pops := topo.PoPs()
	for i, l := range topo.Links() {
		linkNames[i] = pops[l.Src].Name + "-" + pops[l.Dst].Name
	}
	if *withMetrics {
		stacked := make([]string, 0, 3*len(linkNames))
		for _, metric := range []string{"bytes", "flows", "pktsize"} {
			for _, ln := range linkNames {
				stacked = append(stacked, metric+":"+ln)
			}
		}
		linkNames = stacked
	}
	switch *format {
	case "csv":
		if *linksPath == "-" {
			err = netanomaly.WriteMatrixCSV(os.Stdout, links, linkNames)
		} else {
			err = netanomaly.SaveMatrixCSV(*linksPath, links, linkNames)
		}
	case "binary":
		// Counters on the wire are integral: an SNMP byte count is a
		// whole number of bytes, and the generator's continuous loads
		// only look non-integral because the model is. Quantizing here
		// matches what a real collector emits and is what lets the xor
		// codec reach its compression target — integral counts share
		// ~28 trailing zero mantissa bits, full-precision noise shares
		// none.
		raw := links.RawData()
		for i, v := range raw {
			raw[i] = math.Round(v)
		}
		if *linksPath == "-" {
			err = netanomaly.WriteMatrixBinaryFormat(os.Stdout, links, wire)
		} else {
			err = saveBinary(*linksPath, links, wire)
		}
	default:
		err = fmt.Errorf("unknown -format %q: want csv or binary", *format)
	}
	if err != nil {
		fatal(err)
	}
	// The seed is echoed so a logged run can be regenerated bin for bin:
	// generation is deterministic in -seed (pinned by
	// internal/traffic's reproducibility tests).
	formatNote := *format
	if *batchFrames > 0 {
		formatNote = fmt.Sprintf("%s v2 %s x%d", *format, wire.Codec, wire.BatchBins)
	}
	fmt.Fprintf(banner, "wrote %d x %d link matrix%s (%s) to %s (%s: %d PoPs, %d links, %d flows; seed %d)\n",
		outBins, topo.NumLinks(), metricNote, formatNote, *linksPath, topo.Name(), topo.NumPoPs(), topo.NumLinks(), topo.NumFlows(), *seed)
	for _, a := range anomalies {
		fmt.Fprintf(banner, "injected %.3g bytes into flow %s at bin %d\n", a.Delta, topo.FlowName(a.Flow), a.Bin)
	}
	if scenario != nil {
		names := make([]string, len(scenario.AffectedFlows))
		for i, f := range scenario.AffectedFlows {
			names[i] = topo.FlowName(f)
		}
		fmt.Fprintf(banner, "scenario %s from bin %d: %d labeled bins, %d flow-count injections, flows %s\n",
			*scenarioName, *scenarioStart, len(scenario.Truth), len(scenario.FlowCountAnomalies), strings.Join(names, " "))
		for _, tb := range scenario.Truth {
			flow := "-"
			if tb.Flow >= 0 {
				flow = topo.FlowName(tb.Flow)
			}
			fmt.Fprintf(banner, "scenario truth bin %d: %s\n", tb.Bin, flow)
		}
	}
}

func saveBinary(path string, m *netanomaly.Matrix, wire netanomaly.WireFormat) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := netanomaly.WriteMatrixBinaryFormat(f, m, wire); err != nil {
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trafficgen:", err)
	os.Exit(1)
}
