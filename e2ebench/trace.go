package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"netanomaly/internal/core"
)

// layer names the span kinds the traced replica records, one per call
// into a package from the benchmark's own code.
type layer uint8

const (
	spanDecode     layer = iota // netmeas: BinaryDecoder.ReadBatch
	spanWait                    // netmeas: a connection read inside ReadBatch (child of spanDecode)
	spanAdmit                   // engine: Monitor.Ingest on the reader goroutine
	spanCheckpoint              // engine: Monitor.Checkpoint (child of spanCkptWrite)
	spanRestore                 // engine: NewMonitorFromCheckpoint
	spanProcess                 // core: ViewDetector.ProcessBatch
	spanSeed                    // core: detector construction and seed (child of spanRestore on a warm start)
	spanSnapshot                // core: ViewDetector.Snapshot (child of spanCheckpoint)
	spanObserve                 // incident: Correlator.Observe
	spanAdvance                 // incident: Correlator.Advance
	spanEmit                    // ingestd: formatting one output line (child of an incident span when the correlator prints)
	spanCkptWrite               // ingestd: checkpoint + incident snapshot + temp file + rename
	numLayers
)

// layerOf maps each span kind to the package it prices.
var layerOf = [numLayers]string{
	spanDecode: "netmeas", spanWait: "netmeas",
	spanAdmit: "engine", spanCheckpoint: "engine", spanRestore: "engine",
	spanProcess: "core", spanSeed: "core", spanSnapshot: "core",
	spanObserve: "incident", spanAdvance: "incident",
	spanEmit: "ingestd", spanCkptWrite: "ingestd",
}

// span is one call into a layer: its kind, the span that caused it
// (-1 for none), and its start and end in nanoseconds since the
// tracer's origin. The spans of one replica session share its tracer.
type span struct {
	kind       layer
	parent     int32
	start, end int64
}

// tracer keeps spans in memory; they are summarised when the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its handle for end. A nil tracer
// records nothing: the untraced replica that prices the tracer.
func (t *tracer) begin(kind layer, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, parent: parent, start: start})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// summary is the per-kind view of a set of spans: call counts, self
// time (duration minus the part covered by child spans), and every
// duration for percentiles.
type summary struct {
	calls [numLayers]int
	self  [numLayers]time.Duration
	durs  [numLayers][]time.Duration
	// childOf[k] sums, per parent span, the duration of its children of
	// kind k: fill wait per ReadBatch call is childOf[spanWait].
	childOf [numLayers]map[int32]time.Duration
}

func (t *tracer) summarize() *summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &summary{}
	for k := range s.childOf {
		s.childOf[k] = map[int32]time.Duration{}
	}
	for _, sp := range t.spans {
		d := time.Duration(sp.end - sp.start)
		if sp.end == 0 {
			continue // still open: a reader cut off by the end of the run
		}
		s.calls[sp.kind]++
		s.self[sp.kind] += d
		s.durs[sp.kind] = append(s.durs[sp.kind], d)
		if sp.parent >= 0 {
			p := t.spans[sp.parent]
			s.self[p.kind] -= d
			s.childOf[sp.kind][sp.parent] += d
		}
	}
	return s
}

// busy is the self time of every span kind that belongs to the layer.
func (s *summary) busy(pkg string) time.Duration {
	var d time.Duration
	for k := layer(0); k < numLayers; k++ {
		if layerOf[k] == pkg {
			d += s.self[k]
		}
	}
	return d
}

// waitReader is the connection as the decoder sees it: every Read is a
// spanWait child of the ReadBatch call in progress on the same
// goroutine, so its duration is how long that call waited for bytes.
type waitReader struct {
	r      io.Reader
	tr     *tracer
	parent *int32
}

func (w *waitReader) Read(p []byte) (int, error) {
	i := w.tr.begin(spanWait, *w.parent)
	n, err := w.r.Read(p)
	w.tr.end(i)
	return n, err
}

// runTraced runs one untraced ingestd session as the reference, then
// replays the same session in process until --seconds have passed,
// traced and untraced by turns, checks that every replay printed what
// ingestd printed and met the truth, and reports per-layer metrics
// from the traced replays.
func runTraced(cfg config, e *env) (*result, error) {
	w := e.w
	res := &result{Correct: true}
	dir, err := e.ckptDir(0)
	if err != nil {
		return nil, err
	}
	ref, err := runSession(cfg.ingestd, w, e.historyPath, dir)
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	os.RemoveAll(dir)
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL "+format+"\n", args...)
		res.Correct = false
	}
	rv := checkOutput(w, ref.out, ref.due, ref.exitErr)
	for _, p := range rv.problems {
		fail("reference session: %s", p)
	}

	tr := newTracer()
	var (
		runs      []*replicaRun
		wall      time.Duration // traced replica sessions, start to drained
		queueWait []time.Duration
		lag       []time.Duration
		// CPU and bins of the untraced replica sessions.
		plainCPU  time.Duration
		plainBins int
	)
	begin := time.Now()
	var lastRun time.Duration
	for i := 0; i < 2 || (time.Since(begin)+lastRun).Seconds() <= cfg.seconds; i++ {
		traced := i%2 == 0
		t := tr
		if !traced {
			t = nil
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("replica-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := runReplica(w, e.ckpt, dir, t)
		if err != nil {
			return nil, fmt.Errorf("replica session %d: %w", i, err)
		}
		lastRun = time.Since(start)
		os.RemoveAll(dir)
		v := checkOutput(w, r.out, r.due, nil)
		res.Attempted += v.injected
		res.Failed += v.failed()
		for _, p := range v.problems {
			fail("replica session %d: %s", i, p)
		}
		if v.missed > 0 {
			fail("replica session %d: %d of %d anomalies missed", i, v.missed, v.injected)
		}
		if diff := mismatches(w, ref.out, r.out); len(diff) > 0 {
			fail("replica session %d: %d output lines printed by only one of ingestd and the replica, first %q", i, len(diff), diff[0])
		}
		if !traced {
			plainCPU += r.cpu
			plainBins += r.out.processed - w.seqBase
			continue
		}
		wall += r.done.Sub(start)
		runs = append(runs, r)
		queueWait = append(queueWait, r.queueWait...)
		lag = append(lag, r.sendLag...)
	}
	sum := tr.summarize()
	last := runs[len(runs)-1]

	var bins, batches, lines int
	var hw int
	var dropped, rejected int64
	var cpu time.Duration
	for _, r := range runs {
		bins += r.out.processed - w.seqBase
		batches += r.batches
		lines += len(r.lines)
		hw = max(hw, r.qs.DepthHighWater)
		dropped += r.qs.DroppedBins
		rejected += r.qs.RejectedBins
		cpu += r.cpu
	}
	perBin := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(bins) }
	share := func(pkg string) float64 { return sum.busy(pkg).Seconds() / wall.Seconds() }
	var fill []time.Duration
	for _, d := range sum.childOf[spanWait] {
		fill = append(fill, d)
	}
	// Calls that never waited count with zero wait.
	for n := len(fill); n < sum.calls[spanDecode]; n++ {
		fill = append(fill, 0)
	}
	// A bin is held from when it was due until the ReadBatch call that
	// returns it: the decoder-side share of its report latency. Only
	// timed bins count: every bin of the open loop, the probes of the
	// closed loops.
	var hold []time.Duration
	for _, r := range runs {
		k := 0
		for i := 0; i < w.sessionBins(); i++ {
			for k < len(r.decodedUpto) && r.decodedUpto[k] <= i {
				k++
			}
			if due := r.due(i); k < len(r.decoded) && !due.IsZero() {
				hold = append(hold, r.decoded[k].Sub(due))
			}
		}
	}
	var gaps []time.Duration
	for _, r := range runs {
		for i := 1; i < len(r.advances); i++ {
			gaps = append(gaps, r.advances[i].Sub(r.advances[i-1]))
		}
	}
	ck := sum.durs[spanCheckpoint]
	st := last.det.Stats()
	refits := 0
	for _, r := range runs {
		refits += r.det.Stats().Refits
	}
	swapped := 0.0
	if refits > 0 {
		skipped := 0
		for _, r := range runs {
			if sk, ok := r.det.(*core.SketchDetector); ok {
				skipped += sk.SkippedRebuilds()
			}
		}
		swapped = float64(refits) / float64(refits+skipped)
	}
	var escalated, identified float64
	if h, ok := last.det.(*core.HybridDetector); ok {
		hs := h.HybridStats()
		if st.Processed > 0 {
			escalated = float64(hs.Escalated) / float64(st.Processed)
		}
		if hs.Escalated > 0 {
			identified = float64(hs.Identified) / float64(hs.Escalated)
		}
	}
	// The tracer's cost: CPU per bin of the traced replica over the
	// untraced one, generator included in both, whether the loop is open
	// or closed.
	overhead := (cpu.Seconds()/float64(bins))/(plainCPU.Seconds()/float64(plainBins)) - 1

	// The standalone kernels run last: the synchronous refit among them
	// changes the detector's counters read above.
	dc, err := measureDecode(w)
	if err != nil {
		return nil, fmt.Errorf("decode kernel: %w", err)
	}
	raw := make([]core.Alarm, len(last.alarms))
	for i, a := range last.alarms {
		raw[i] = a.Alarm
	}
	kc, err := measureKernels(w, last.det, raw)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}

	res.Metrics = map[string]metric{}
	put := func(name, unit string, value float64) {
		res.Metrics[name] = metric{Value: value, Unit: unit}
		fmt.Printf("  %-34s %14.6g %s\n", name, value, unit)
	}
	fmt.Printf("workload %s: seed %d, replica: %d traced sessions of %d bins, %d spans, %.3fs wall, %.3fs CPU; untraced %.3fs CPU over %d bins; reference ingestd session %d bins\n",
		w.name, cfg.seed, len(runs), w.sessionBins(), len(tr.spans), wall.Seconds(), cpu.Seconds(), plainCPU.Seconds(), plainBins, ref.out.processed-w.seqBase)
	put("netmeas.decode_ns_per_bin", "ns", dc.nsPerBin)
	put("netmeas.wire_bytes_per_bin", "bytes", float64(len(w.wire)-binaryHeaderSize)/float64(len(w.binEnd)))
	put("netmeas.read_calls_per_bin", "count", dc.readsPerBin)
	put("netmeas.allocs_per_bin", "count", dc.allocsPerBin)
	put("netmeas.fill_wait_ms_p50", "ms", ms(quantileDur(fill, 0.5)))
	put("netmeas.fill_wait_ms_p99", "ms", ms(quantileDur(fill, 0.99)))
	put("netmeas.hold_ms_p50", "ms", ms(quantileDur(hold, 0.5)))
	put("netmeas.hold_ms_p99", "ms", ms(quantileDur(hold, 0.99)))
	put("netmeas.busy_frac", "ratio", share("netmeas")-sum.self[spanWait].Seconds()/wall.Seconds())
	put("engine.admit_ns_per_bin", "ns", perBin(sum.self[spanAdmit]))
	put("engine.queue_wait_ms_p50", "ms", ms(quantileDur(queueWait, 0.5)))
	put("engine.queue_wait_ms_p99", "ms", ms(quantileDur(queueWait, 0.99)))
	put("engine.queue_high_water_bins", "bins", float64(hw))
	put("engine.bins_per_batch", "bins", float64(bins)/float64(max(batches, 1)))
	put("engine.dropped_bins", "bins", float64(dropped))
	put("engine.rejected_bins", "bins", float64(rejected))
	put("engine.checkpoint_ms_p50", "ms", ms(quantileDur(ck, 0.5)))
	put("engine.checkpoint_ms_max", "ms", ms(quantileDur(ck, 1)))
	put("engine.checkpoint_bytes", "bytes", float64(last.ckptBytes))
	put("engine.restore_ms", "ms", ms(quantileDur(sum.durs[spanRestore], 0.5)))
	put("engine.busy_frac", "ratio", share("engine"))
	put("core.seed_ms", "ms", ms(quantileDur(sum.durs[spanSeed], 0.5)))
	put("core.score_ns_per_bin", "ns", perBin(sum.self[spanProcess]))
	put("core.batch_ms_p99", "ms", ms(quantileDur(sum.durs[spanProcess], 0.99)))
	put("core.fd_insert_ns_per_bin", "ns", kc.fdInsertNs)
	put("core.refit_ms", "ms", ms(kc.refit))
	put("core.refits_per_kbin", "count", 1000*float64(refits)/float64(bins))
	put("core.swapped_refit_frac", "ratio", swapped)
	put("core.snapshot_ms", "ms", ms(kc.snapshot))
	put("core.snapshot_bytes", "bytes", float64(kc.snapshotBytes))
	put("core.escalated_frac", "ratio", escalated)
	put("core.identified_per_escalated", "ratio", identified)
	put("core.busy_frac", "ratio", share("core"))
	put("mat.svd_ms", "ms", ms(kc.svd))
	put("mat.symeig_ms", "ms", ms(kc.symeig))
	put("forecast.ewma_ns_per_bin", "ns", kc.ewmaNs)
	put("incident.observe_ns_per_alarm", "ns", kc.observeNs)
	put("incident.advance_gap_ms_p50", "ms", ms(quantileDur(gaps, 0.5)))
	put("incident.alarms_per_incident", "count", kc.alarmsPerIncident)
	put("incident.busy_frac", "ratio", share("incident"))
	put("ingestd.checkpoint_write_ms_p50", "ms", ms(quantileDur(sum.durs[spanCkptWrite], 0.5)))
	put("ingestd.alarm_lines_per_kbin", "count", 1000*float64(lines)/float64(bins))
	put("ingestd.busy_frac", "ratio", share("ingestd"))
	put("gen.send_lag_ms_p99", "ms", ms(quantileDur(lag, 0.99)))
	put("trace.overhead_frac", "ratio", overhead)
	return res, nil
}

// mismatches lists the report lines printed by only one of a replica
// and ingestd: every alarm line; with incidents, every open line with
// its ID stripped, leaving out opens that continue an incident the
// ticker closed early (splitOpens) — whether and where that happens
// depends on timing, and one split renumbers every later incident. A
// backend that refits in the background swaps models at
// timing-dependent bins, so there only the bin and flow of alarms on
// injected bins must agree.
func mismatches(w *workload, a, b output) []string {
	if w.refit > 0 {
		injected := map[int]bool{}
		for _, t := range w.truth {
			injected[w.seq(t.first)] = true
		}
		keep := func(o output) (out []string) {
			for _, r := range o.alarms {
				if injected[r.bin] {
					out = append(out, fmt.Sprintf("alarm bin %d flow %s", r.bin, r.flow))
				}
			}
			return out
		}
		return symDiff(keep(a), keep(b))
	}
	lines := func(o output) (out []string) {
		for _, r := range o.alarms {
			out = append(out, r.line)
		}
		split := splitOpens(o)
		for i, r := range o.opens {
			if !split[i] {
				out = append(out, r.line[strings.Index(r.line, " open: "):])
			}
		}
		return out
	}
	return symDiff(lines(a), lines(b))
}

// symDiff lists the lines of a and b, as multisets, found in only one.
func symDiff(a, b []string) []string {
	count := map[string]int{}
	for _, l := range a {
		count[l]++
	}
	for _, l := range b {
		count[l]--
	}
	var out []string
	for l, n := range count {
		for ; n != 0; n -= sign(n) {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

func sign(n int) int {
	if n < 0 {
		return -1
	}
	return 1
}
