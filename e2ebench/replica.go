package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netanomaly/internal/core"
	"netanomaly/internal/engine"
	"netanomaly/internal/forecast"
	"netanomaly/internal/incident"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
)

// view is the single view ingestd registers.
const view = "net"

// replicaRun is one in-process replay of ingestd's wiring on the same
// stream an ingestd session receives.
type replicaRun struct {
	sender
	out   output
	lines []stamped
	done  time.Time
	// queueWait is, per processed batch, Monitor.Ingest's start to the
	// detector's ProcessBatch start.
	queueWait []time.Duration
	batches   int
	qs        engine.QueueStats
	det       core.ViewDetector // the backend inside the traced wrapper
	alarms    []engine.Alarm    // the raw alarm stream, in emit order
	ckptBytes int               // the monitor checkpoint's size, the last time one was written
	advances  []time.Time
	// cpu is this process's CPU from the connection's set-up to done:
	// the load generator and the pipeline.
	cpu time.Duration
	// decoded[k] is when the k-th ReadBatch call returned and
	// decodedUpto[k] how many stream bins had been decoded by then.
	decoded     []time.Time
	decodedUpto []int
}

// tracedDetector wraps the backend the way the monitor sees it, so
// every ProcessBatch and Snapshot the engine makes is a span, and
// hands the pooled frame buffer of each processed batch back to its
// pool, as the engine does for IngestBinary's buffers.
type tracedDetector struct {
	core.ViewDetector
	tr *tracer

	mu      sync.Mutex
	pending []admitted // batches handed to Ingest, oldest first
	waits   []time.Duration
	batches int
	ckpt    *int32 // the checkpoint span in progress, parent of Snapshot
}

type admitted struct {
	at time.Time
	fb *netmeas.FrameBatch
}

func (d *tracedDetector) push(a admitted) {
	d.mu.Lock()
	d.pending = append(d.pending, a)
	d.mu.Unlock()
}

func (d *tracedDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	start := time.Now()
	d.mu.Lock()
	a := d.pending[0]
	d.pending = d.pending[1:]
	d.waits = append(d.waits, start.Sub(a.at))
	d.batches++
	d.mu.Unlock()
	i := d.tr.begin(spanProcess, -1)
	alarms, err := d.ViewDetector.ProcessBatch(y)
	d.tr.end(i)
	a.fb.Release()
	return alarms, err
}

func (d *tracedDetector) Snapshot(w io.Writer) error {
	i := d.tr.begin(spanSnapshot, *d.ckpt)
	err := d.ViewDetector.Snapshot(w)
	d.tr.end(i)
	return err
}

// modelOptions are the diagnoser options ingestd's flags select.
var modelOptions = core.Options{Confidence: 0.999, Rank: modelRank}

// newDetector builds and seeds the workload's backend exactly as
// ingestd's flags do through the public AddView: window = the seed
// history, default escalation.
func newDetector(w *workload) (core.ViewDetector, error) {
	routing := w.topo.RoutingMatrix()
	window := w.history.Rows()
	opts := modelOptions
	switch w.detector {
	case "subspace":
		return core.NewOnlineDetector(w.history, routing, core.OnlineConfig{Window: window, RefitEvery: w.refit, Options: opts})
	case "sketch":
		return core.NewSketchDetector(w.history, routing, core.SketchConfig{SketchSize: w.sketchSize, RefitEvery: w.refit, Options: opts})
	case "hybrid":
		policy, confirm, err := core.ParseEscalation("")
		if err != nil {
			return nil, err
		}
		triage, err := forecast.NewDetector(w.history, forecast.Config{Kind: forecast.EWMA, Window: window, RefitEvery: w.refit})
		if err != nil {
			return nil, err
		}
		identify, err := core.NewOnlineDetector(w.history, routing, core.OnlineConfig{Window: window, Options: opts})
		if err != nil {
			return nil, err
		}
		return core.NewHybridDetector(triage, identify, w.history, core.HybridConfig{
			Escalation: policy, Confirm: confirm, Window: window, RefitEvery: w.refit,
		})
	}
	return nil, fmt.Errorf("no replica for -detector %s", w.detector)
}

// runReplica replays one ingestd session in process: seed (or restore
// the warm-start checkpoint), accept one loopback connection, decode
// with ReadBatch into pooled buffers, admit with Monitor.Ingest, run
// the 500 ms incident and checkpoint tickers, drain, and write the
// final checkpoint. The lines it would print are kept for the output
// check and for comparison with ingestd's.
func runReplica(w *workload, ckpt []byte, dir string, tr *tracer) (*replicaRun, error) {
	r := &replicaRun{sender: sender{progress: newProgress()}}
	var (
		linesMu sync.Mutex
		alarmMu sync.Mutex
		corrMu  sync.Mutex // held across each correlator call, so spanEmit knows its parent
		corrCur int32      = -1
		corr    *incident.Correlator
		mon     *engine.Monitor
	)
	emit := func(parent int32, format string, args ...any) {
		i := tr.begin(spanEmit, parent)
		l := stamped{s: fmt.Sprintf(format, args...)}
		tr.end(i)
		l.t = time.Now()
		linesMu.Lock()
		r.lines = append(r.lines, l)
		linesMu.Unlock()
	}
	if w.incidents {
		corr = incident.New(incident.Config{OnEvent: func(e incident.Event) {
			inc := e.Incident
			what := fmt.Sprintf("view %s (unattributed)", inc.Key.Region)
			if inc.Key.Flow >= 0 {
				what = "flow " + w.topo.FlowName(inc.Key.Flow)
			}
			switch e.Type {
			case incident.Opened:
				emit(corrCur, "incident #%d open: %s, start bin %d, SPE %.4g", inc.ID, what, inc.StartSeq, inc.PeakSPE)
			case incident.Closed:
				emit(corrCur, "incident #%d closed: %s, bins %d..%d, peak SPE %.4g, %.4g bytes, %d alarms, %d views, severity %.4g",
					inc.ID, what, inc.StartSeq, inc.EndSeq, inc.PeakSPE, inc.Bytes, inc.Alarms, len(inc.Views), inc.Severity())
			}
		}})
	}
	withCorr := func(kind layer, f func()) {
		corrMu.Lock()
		corrCur = tr.begin(kind, -1)
		f()
		tr.end(corrCur)
		corrCur = -1
		corrMu.Unlock()
	}
	cfg := engine.Config{
		BatchSize:  64,
		RefitEvery: w.refit,
		MaxPending: w.maxPending,
		Overload:   engine.OverloadBlock,
		Options:    modelOptions,
		OnAlarm: func(a engine.Alarm) {
			alarmMu.Lock()
			defer alarmMu.Unlock()
			r.alarms = append(r.alarms, a)
			r.progress.report(a.Seq - w.seqBase)
			if corr != nil {
				withCorr(spanObserve, func() { corr.Observe(a.View, a.Alarm) })
				return
			}
			flow := "-"
			if a.Flow >= 0 {
				flow = w.topo.FlowName(a.Flow)
			}
			emit(-1, "alarm bin %d: SPE %.4g > %.4g, flow %s, %.4g bytes", a.Seq, a.SPE, a.Threshold, flow, a.Bytes)
		},
	}
	var ckptSpan int32 = -1
	var traced *tracedDetector
	build := func(parent int32) (core.ViewDetector, error) {
		i := tr.begin(spanSeed, parent)
		det, err := newDetector(w)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		r.det = det
		traced = &tracedDetector{ViewDetector: det, tr: tr, ckpt: &ckptSpan}
		return traced, nil
	}
	if ckpt != nil {
		i := tr.begin(spanRestore, -1)
		rd := bytes.NewReader(ckpt)
		var err error
		mon, err = engine.NewMonitorFromCheckpoint(cfg, rd, func(name, kind string, links int) (core.ViewDetector, error) {
			return build(i)
		})
		if err == nil && corr != nil && rd.Len() > 0 {
			err = corr.Restore(rd)
		}
		tr.end(i)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
	} else {
		mon = engine.NewMonitor(cfg)
		det, err := build(-1)
		if err == nil {
			err = mon.AddDetectorView(view, det)
		}
		if err != nil {
			return nil, err
		}
	}
	monClosed := false
	defer func() {
		if !monClosed {
			mon.Close()
		}
	}()
	stats, err := mon.ViewStats(view)
	if err != nil {
		return nil, err
	}

	ckptFile := filepath.Join(dir, "checkpoint.nams")
	writeCkpt := func() error {
		i := tr.begin(spanCkptWrite, -1)
		defer tr.end(i)
		tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		ckptSpan = tr.begin(spanCheckpoint, i)
		err = mon.Checkpoint(tmp)
		tr.end(ckptSpan)
		if err == nil {
			var n int64
			n, err = tmp.Seek(0, io.SeekCurrent)
			r.ckptBytes = int(n)
		}
		if err == nil && corr != nil {
			err = corr.Snapshot(tmp)
		}
		if err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return os.Rename(tmp.Name(), ckptFile)
	}

	stop := make(chan struct{})
	var tickers sync.WaitGroup
	stopTickers := sync.OnceFunc(func() {
		close(stop)
		tickers.Wait()
	})
	defer stopTickers()
	errs := make(chan error, 1)
	if corr != nil {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if vs, err := mon.ViewStats(view); err == nil && vs.Processed > 0 {
						r.advances = append(r.advances, time.Now())
						withCorr(spanAdvance, func() { corr.Advance(vs.Processed - 1) })
					}
				}
			}
		}()
	}
	if ckpt != nil && w.ckptEvery > 0 {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			last := stats.Processed
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					vs, err := mon.ViewStats(view)
					if err != nil || vs.Processed-last < w.ckptEvery {
						continue
					}
					if err := writeCkpt(); err != nil {
						select {
						case errs <- err:
						default:
						}
						continue
					}
					last = vs.Processed
				}
			}
		}()
	}

	cpu0 := selfCPU()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	sendErr := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			sendErr <- err
			return
		}
		defer c.Close()
		sendErr <- r.send(c.(*net.TCPConn), w)
	}()
	conn, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	ingestErr := r.ingest(conn, mon, traced, tr)
	conn.Close()
	if err := <-sendErr; err != nil {
		return nil, err
	}
	if ingestErr != nil {
		return nil, ingestErr
	}
	stopTickers()
	mon.Close()
	monClosed = true
	if corr != nil {
		if vs, err := mon.ViewStats(view); err == nil && vs.Processed > 0 {
			withCorr(spanAdvance, func() { corr.Advance(vs.Processed - 1) })
		}
	}
	if ckpt != nil {
		if err := writeCkpt(); err != nil {
			return nil, fmt.Errorf("final checkpoint: %w", err)
		}
	}
	select {
	case err := <-errs:
		return nil, fmt.Errorf("checkpoint: %w", err)
	default:
	}
	if errs := mon.Errs(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	r.done = time.Now()
	r.cpu = selfCPU() - cpu0
	vs, err := mon.ViewStats(view)
	if err != nil {
		return nil, err
	}
	if r.qs, err = mon.QueueStats(view); err != nil {
		return nil, err
	}
	r.queueWait, r.batches = traced.waits, traced.batches
	r.out = parseOutput(r.lines)
	r.out.links, r.out.processed, r.out.done = vs.Links, vs.Processed, r.done
	r.out.highWater, r.out.dropped, r.out.rejected = r.qs.DepthHighWater, r.qs.DroppedBins, r.qs.RejectedBins
	return r, nil
}

// ingest is IngestBinary's loop rebuilt from public calls: ReadBatch
// into a pooled buffer, then Monitor.Ingest, which admits the batch
// under the view's bound and overload policy; the traced detector
// releases the buffer once the batch is processed.
func (r *replicaRun) ingest(conn net.Conn, mon *engine.Monitor, det *tracedDetector, tr *tracer) error {
	var cur int32 = -1
	dec, err := netmeas.NewBinaryDecoder(&waitReader{r: conn, tr: tr, parent: &cur})
	if err != nil {
		return err
	}
	pool := netmeas.NewFrameBatchPool(max(64, dec.BatchBins()), dec.Links())
	for {
		fb := pool.Get()
		cur = tr.begin(spanDecode, -1)
		rows, derr := dec.ReadBatch(fb)
		tr.end(cur)
		cur = -1
		if rows == 0 {
			fb.Release()
			if derr == nil || derr == io.EOF {
				return nil
			}
			return derr
		}
		upto := rows
		if k := len(r.decodedUpto); k > 0 {
			upto += r.decodedUpto[k-1]
		}
		r.decoded, r.decodedUpto = append(r.decoded, time.Now()), append(r.decodedUpto, upto)
		i := tr.begin(spanAdmit, -1)
		det.push(admitted{at: time.Now(), fb: fb})
		err := mon.Ingest(view, fb.Rows(rows))
		tr.end(i)
		if err != nil {
			return err
		}
		if derr == io.EOF {
			return nil
		}
		if derr != nil {
			return derr
		}
	}
}
