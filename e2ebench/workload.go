package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// weekBins is the paper's model window: one week of 10-minute bins.
const weekBins = 1008

// modelRank fixes the normal-subspace rank (-rank) on every workload.
// The sigma rule picks 1 to 8 depending on the traffic seed, and with
// it the false-alarm rate of a one-week model over a long stream swings
// from 0.01% to 2%, the sketch size (4x rank) with it. At rank 12 every
// seed sits near the 0.1% the 0.999 confidence promises, so neither the
// alarm volume nor the sketch size moves a run's cost with its seed.
const modelRank = 12

// anomaly is one injected event: a floodBytes surge on an OD flow for
// bins consecutive bins starting at stream bin first.
type anomaly struct {
	first, bins, flow int
}

// workload is everything one benchmark workload needs, generated from
// the seed during untimed set-up: the seed history, the pre-encoded
// stream with the byte offset at which each bin is complete, the
// injected truth, and the ingestd flags.
type workload struct {
	name     string
	links    int // the link count the workload is defined on
	topo     *topology.Topology
	topoFlag string
	history  *mat.Dense
	stream   *mat.Dense
	format   netmeas.WireFormat
	wire     []byte
	binEnd   []int // binEnd[i]: wire offset after which bin i can be decoded
	truth    []anomaly
	// seqBase is the alarm sequence number of stream bin 0: 0 after a
	// cold seed, the pre-roll length after a warm restart.
	seqBase int
	// rate paces the stream in bins/s (open loop); 0 is a closed loop
	// that writes the stream as fast as the server reads it.
	rate float64
	// probes is how many frames holding a spike a closed-loop session
	// sends one at a time, each after the previous one's alarm, before
	// its bulk stream: the server's report latency when idle. They are
	// the first session bins (lead of them); probe[p] is frame p, cut
	// from wire, and probeAck[p] the session bin after its last spike.
	probes   int
	lead     int
	probe    [][]byte
	probeAck []int
	detector string
	refit    int
	// sketchSize is -sketch-size: the smallest the fixed rank allows
	// (2x), where the default 4x would make every bin pay for a 48-row
	// eigensolve.
	sketchSize int
	incidents  bool
	// maxPending bounds the view's queue (-max-pending); 0 is unbounded.
	maxPending int
	// ckptEvery is -checkpoint-every on the warm-restart workload.
	ckptEvery int
	// copies is how many times a session sends the stream back to back
	// over its one connection; every copy must yield the same alarms.
	// The wire pre-encodes encCopies copies (enough for its batch frames
	// to realign with the stream's start) and is sent copies/encCopies
	// times after one header.
	copies, encCopies int
	// preroll is the stream that builds the warm-restart checkpoint.
	preroll *mat.Dense

	// Generation shape: pre-roll and stream length, and an anomaly of
	// length bins every every bins.
	prerollBins, bins, every, length int
}

func buildWorkload(name string, seed int64) (w *workload, err error) {
	w, err = newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if w.topo.NumLinks() != w.links {
		return nil, fmt.Errorf("%s: topology %s has %d links, the workload is defined on %d", name, w.topoFlag, w.topo.NumLinks(), w.links)
	}
	w.seqBase = w.prerollBins
	return w, w.generate(seed)
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "backfill-subspace":
		// One synthetic year after a one-week seed, xor-coded 64-bin
		// frames. A spike every 500 bins (three and a half days of
		// 10-minute bins) checks attribution at 105 bins spread over the
		// year while alarm lines stay a small share of the output. The
		// probes cycle ten times through the 105 frames holding them.
		return &workload{
			name: name, topo: topology.Abilene(), topoFlag: "abilene",
			format:   netmeas.WireFormat{Version: netmeas.BinaryVersion2, Codec: netmeas.CodecXOR, BatchBins: 64},
			detector: "subspace", maxPending: 256, probes: 1000,
			links: 41, bins: 52560, every: 500, length: 1,
			// 52560 = 821*64 + 16: four copies end on a frame boundary.
			copies: 32, encCopies: 4,
		}, nil
	case "backfill-sketch":
		// 24 PoPs and 48 duplex edges give 120 links with the intra-PoP
		// links; the topology seed is the workload seed, passed to
		// ingestd in the same form. Background rebuilds swap models at
		// timing-dependent bins, so the replica can be compared with
		// ingestd only on injected bins: a spike every 25 bins gives
		// that comparison some 320 bins a session, and puts one in each
		// of the stream's 126 frames, all of which are probed.
		return &workload{
			name: name, topo: topology.Synthetic(24, 48, seed),
			topoFlag: fmt.Sprintf("synthetic:24:48:%d", seed),
			format:   netmeas.WireFormat{Version: netmeas.BinaryVersion2, Codec: netmeas.CodecRaw, BatchBins: 64},
			detector: "sketch", refit: weekBins, maxPending: 256, probes: 126,
			sketchSize: 2 * modelRank,
			links:      120, bins: 8064, every: 25, length: 1,
			copies: 1, encCopies: 1,
		}, nil
	case "live-incidents":
		// A checkpoint taken after a 256-bin pre-roll warm-starts every
		// session; v1 per-bin frames paced at 5000 bins/s carry an
		// 8-bin flood every 50 bins: the 42 quiet bins between floods
		// outlast the quiet period, so each flood is its own incident,
		// and a run's ~2,000 attacks leave p99 ten samples beyond it.
		return &workload{
			name: name, topo: topology.Abilene(), topoFlag: "abilene",
			detector: "hybrid", incidents: true, ckptEvery: 1000, rate: 5000,
			links: 41, prerollBins: 256, bins: 12800, every: 50, length: 8,
			copies: 1, encCopies: 1,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want backfill-subspace, backfill-sketch or live-incidents)", name)
}

// floodBytes is every anomaly's surge: twice the scenario library's
// synflood volume at the default traffic scale. At rank 12 a 1.5e8
// spike on a flow that lies mostly in the normal subspace can fall
// under the threshold (the paper's Section 5.4); at 3e8 every spike of
// 40 probed seeds is detected and attributed, so a miss means a broken
// program rather than an unlucky seed.
const floodBytes = 3e8

// generate draws week+preroll+stream bins of OD traffic, injects an
// anomaly of w.length bins every w.every bins of the stream (the first
// one half a period in, so none touches the stream's edges), encodes
// the stream and picks the probe frames.
func (w *workload) generate(seed int64) error {
	preroll, bins, every, length := w.prerollBins, w.bins, w.every, w.length
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = weekBins + preroll + bins
	gen, err := traffic.NewGenerator(w.topo, cfg)
	if err != nil {
		return err
	}
	od := gen.Generate()
	flows := attackFlows(w.topo, seed)
	start := weekBins + preroll
	var spikes []traffic.Anomaly
	for k, first := 0, every/2; first+length+every/2 <= bins; k, first = k+1, first+every {
		a := anomaly{first: first, bins: length, flow: flows[k%len(flows)]}
		w.truth = append(w.truth, a)
		for b := 0; b < length; b++ {
			spikes = append(spikes, traffic.Anomaly{Flow: a.flow, Bin: start + first + b, Delta: floodBytes})
		}
	}
	traffic.Inject(od, spikes)
	links := traffic.LinkLoads(w.topo, od)
	w.history = rowSlice(links, 0, weekBins)
	if preroll > 0 {
		w.preroll = rowSlice(links, weekBins, start)
	}
	w.stream = rowSlice(links, start, start+bins)
	if w.wire, w.binEnd, err = encode(w.stream, w.encCopies, w.format); err != nil {
		return err
	}
	year := w.truth
	w.truth = w.pickProbes(year)
	for c := 0; c < w.copies; c++ {
		for _, a := range year {
			a.first += w.lead + c*bins
			w.truth = append(w.truth, a)
		}
	}
	return nil
}

// pickProbes cuts w.probes frames from the wire, cycling through the
// full frames of the stream's first copy that hold a spike, and returns
// their spikes at the session bins the probes occupy.
func (w *workload) pickProbes(year []anomaly) []anomaly {
	if w.probes == 0 {
		return nil
	}
	per := w.format.BatchBins
	var frames []int
	spikes := map[int][]anomaly{}
	for _, a := range year {
		f := a.first / per
		if (f+1)*per > len(w.binEnd) {
			continue // a short last frame must stay last
		}
		if spikes[f] == nil {
			frames = append(frames, f)
		}
		spikes[f] = append(spikes[f], a)
	}
	var truth []anomaly
	for p := 0; p < w.probes; p++ {
		f := frames[p%len(frames)]
		start := binaryHeaderSize
		if f > 0 {
			start = w.binEnd[f*per-1]
		}
		w.probe = append(w.probe, w.wire[start:w.binEnd[f*per]])
		for _, a := range spikes[f] {
			a.first = p*per + a.first%per
			truth = append(truth, a)
		}
		last := truth[len(truth)-1]
		w.probeAck = append(w.probeAck, last.first+last.bins)
	}
	w.lead = w.probes * per
	return truth
}

// sessionBins is how many bins one session sends: the probes, then the
// bulk stream.
func (w *workload) sessionBins() int { return w.lead + w.copies*w.bins }

// wireEnd is the offset in an open-loop session's byte stream (one
// header, then the wire body repeated) after which session bin i is
// decodable.
func (w *workload) wireEnd(i int) int {
	per := len(w.binEnd)
	body := len(w.wire) - binaryHeaderSize
	return (i/per)*body + w.binEnd[i%per]
}

// attackFlows is a seeded rotation over every inter-PoP OD flow.
func attackFlows(topo *topology.Topology, seed int64) []int {
	var flows []int
	for f := 0; f < topo.NumFlows(); f++ {
		if o, d := topo.FlowEndpoints(f); o != d {
			flows = append(flows, f)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	return flows
}

func rowSlice(m *mat.Dense, r0, r1 int) *mat.Dense {
	c := m.Cols()
	return mat.NewDense(r1-r0, c, append([]float64(nil), m.RawData()[r0*c:r1*c]...))
}

// binaryHeaderSize is the NAMB stream header: magic, version, codec,
// batch capacity, link count.
const binaryHeaderSize = 12

// encode writes copies of y back to back in the wire format and
// records, per bin, the stream offset after which the decoder holds
// that bin (its frame's end).
func encode(y *mat.Dense, copies int, format netmeas.WireFormat) ([]byte, []int, error) {
	var buf bytes.Buffer
	enc, err := netmeas.NewBinaryEncoderFormat(&buf, y.Cols(), format)
	if err != nil {
		return nil, nil, err
	}
	n := copies * y.Rows()
	ends := make([]int, n)
	pending := 0
	mark := func(upto int) {
		for ; pending < upto; pending++ {
			ends[pending] = buf.Len()
		}
	}
	for i := 0; i < n; i++ {
		before := buf.Len()
		if err := enc.WriteFrame(y.RowView(i % y.Rows())); err != nil {
			return nil, nil, err
		}
		if buf.Len() != before {
			mark(i + 1)
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, nil, err
	}
	mark(n)
	return buf.Bytes(), ends, nil
}

// ingestdArgs is the command line every session of the workload runs.
// With stdin it reads one stream from standard input instead of
// listening.
func (w *workload) ingestdArgs(historyPath, ckptDir string, stdin bool) []string {
	args := []string{"-history", historyPath, "-topology", w.topoFlag}
	if stdin {
		args = append(args, "-listen", "", "-stdin")
	} else {
		args = append(args, "-listen", "127.0.0.1:0", "-conns", "1")
	}
	args = append(args, "-detector", w.detector, "-rank", strconv.Itoa(modelRank))
	if w.refit > 0 {
		args = append(args, "-refit", strconv.Itoa(w.refit))
	}
	if w.sketchSize > 0 {
		args = append(args, "-sketch-size", strconv.Itoa(w.sketchSize))
	}
	if w.maxPending > 0 {
		args = append(args, "-max-pending", strconv.Itoa(w.maxPending), "-overload", "block")
	}
	if w.incidents {
		args = append(args, "-incidents")
	}
	if ckptDir != "" {
		args = append(args, "-checkpoint", ckptDir)
		if w.ckptEvery > 0 {
			args = append(args, "-checkpoint-every", strconv.Itoa(w.ckptEvery))
		}
	}
	return args
}

// describe is the one-line record of the workload's shape.
func (w *workload) describe() string {
	loop := fmt.Sprintf("closed loop after %d idle probe frames", w.probes)
	if w.rate > 0 {
		loop = fmt.Sprintf("open loop at %g bins/s", w.rate)
	}
	codec := "v1 per-bin frames"
	if w.format.Version == netmeas.BinaryVersion2 {
		codec = fmt.Sprintf("v2 %s x%d frames", w.format.Codec, w.format.BatchBins)
	}
	ckpt := ""
	if w.preroll != nil {
		ckpt = "<dir>"
	}
	return fmt.Sprintf("%s (%d links), %s, %s, ingestd %s", w.topoFlag, w.topo.NumLinks(), codec, loop,
		strings.Join(w.ingestdArgs("<history>", ckpt, false), " "))
}

// writeHistory saves the seed week where ingestd -history can read it.
func (w *workload) writeHistory(dir string) (string, error) {
	path := filepath.Join(dir, w.name+"-history.bin")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := netmeas.WriteMatrixBinary(f, w.history); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// seq is the sequence number ingestd reports for stream bin b.
func (w *workload) seq(b int) int { return w.seqBase + b }
