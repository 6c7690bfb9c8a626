package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/incident"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
)

// A standalone kernel measurement repeats its work until it has run at
// least three times for minKernelTime, or once for maxKernelTime, and
// takes the median repetition.
const (
	minKernelTime = 200 * time.Millisecond
	maxKernelTime = time.Second
)

func repeat(f func()) time.Duration {
	var ds []time.Duration
	begin := time.Now()
	for len(ds) < 3 || time.Since(begin) < minKernelTime {
		t := time.Now()
		f()
		ds = append(ds, time.Since(t))
		if time.Since(begin) >= maxKernelTime {
			break
		}
	}
	return quantileDur(ds, 0.5)
}

// decodeCost is ReadBatch over the workload's encoded bytes in memory:
// time, heap allocations and reader calls per bin.
type decodeCost struct {
	nsPerBin, allocsPerBin, readsPerBin float64
}

func measureDecode(w *workload) (decodeCost, error) {
	var c decodeCost
	var err error
	decodeAll := func() (bins int, reads int64) {
		dec, derr := netmeas.NewBinaryDecoder(bytes.NewReader(w.wire))
		if derr != nil {
			err = derr
			return 0, 0
		}
		pool := netmeas.NewFrameBatchPool(max(64, dec.BatchBins()), dec.Links())
		for {
			fb := pool.Get()
			rows, derr := dec.ReadBatch(fb)
			fb.Release()
			bins += rows
			if derr == io.EOF {
				return bins, dec.ReadCalls()
			}
			if derr != nil {
				err = derr
				return bins, dec.ReadCalls()
			}
		}
	}
	bins, reads := decodeAll()
	if err != nil || bins == 0 {
		return c, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decodeAll()
	runtime.ReadMemStats(&ms1)
	c.allocsPerBin = float64(ms1.Mallocs-ms0.Mallocs) / float64(bins)
	c.readsPerBin = float64(reads) / float64(bins)
	c.nsPerBin = float64(repeat(func() { decodeAll() }).Nanoseconds()) / float64(bins)
	return c, err
}

// kernelCosts are the standalone model-maintenance and triage kernels
// at the workload's shapes. A kernel the workload's ingestd never runs
// stays 0.
type kernelCosts struct {
	svd, symeig, refit, snapshot time.Duration
	snapshotBytes                int
	fdInsertNs, ewmaNs           float64
	observeNs, alarmsPerIncident float64
}

func measureKernels(w *workload, det core.ViewDetector, alarms []core.Alarm) (kernelCosts, error) {
	var k kernelCosts
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	if w.detector == "subspace" {
		// The seed window's SVD, as core.Fit computes it on centered data.
		centered := center(w.history)
		k.svd = repeat(func() {
			_, _, _, e := mat.SVD(centered)
			keep(e)
		})
	}

	if w.detector == "sketch" {
		// FDSketch.Insert over the workload's bins at its sketch size.
		bins := min(w.stream.Rows(), 8192)
		fd := repeat(func() {
			sk, e := core.NewFDSketch(w.history.Cols(), w.sketchSize)
			for i := 0; i < bins && e == nil; i++ {
				e = sk.Insert(w.stream.RowView(i))
			}
			keep(e)
		})
		k.fdInsertNs = float64(fd.Nanoseconds()) / float64(bins)

		// One shrink's eigenproblem: the Gram of sketchSize centered rows.
		b := center(rowSlice(w.stream, 0, w.sketchSize))
		gram := mat.Mul(b, b.T())
		k.symeig = repeat(func() {
			_, _, e := mat.SymEig(gram)
			keep(e)
		})
	}
	if err != nil {
		return k, err
	}

	if w.refit > 0 {
		// A synchronous refit of the end-of-run state.
		t := time.Now()
		if err := det.Refit(); err != nil {
			return k, err
		}
		k.refit = time.Since(t)
	}

	if w.ckptEvery > 0 {
		// A snapshot of the end-of-run state, as a checkpoint takes it.
		var buf bytes.Buffer
		k.snapshot = repeat(func() {
			buf.Reset()
			keep(det.Snapshot(&buf))
		})
		if err != nil {
			return k, err
		}
		k.snapshotBytes = buf.Len()
	}

	if w.detector == "hybrid" {
		// The triage stage alone: an EWMA forecaster over the stream.
		tri, err := forecast.NewDetector(w.history, forecast.Config{Kind: forecast.EWMA, Window: w.history.Rows()})
		if err != nil {
			return k, err
		}
		t := time.Now()
		for r := 0; r < w.stream.Rows(); r += 64 {
			if _, err := tri.ProcessBatch(rowSlice(w.stream, r, min(r+64, w.stream.Rows()))); err != nil {
				return k, err
			}
		}
		k.ewmaNs = float64(time.Since(t).Nanoseconds()) / float64(w.stream.Rows())
	}

	if w.incidents && len(alarms) > 0 {
		// The correlator over the run's raw alarm stream.
		var st incident.Stats
		d := repeat(func() {
			c := incident.New(incident.Config{})
			for _, a := range alarms {
				c.Observe(view, a)
			}
			st = c.Stats()
		})
		k.observeNs = float64(d.Nanoseconds()) / float64(len(alarms))
		if st.Opened > 0 {
			k.alarmsPerIncident = float64(len(alarms)) / float64(st.Opened)
		}
	}
	return k, nil
}

// center subtracts each column's mean.
func center(y *mat.Dense) *mat.Dense {
	r, c := y.Dims()
	out := mat.Zeros(r, c)
	for j := 0; j < c; j++ {
		var mean float64
		for i := 0; i < r; i++ {
			mean += y.At(i, j)
		}
		mean /= float64(r)
		for i := 0; i < r; i++ {
			out.Set(i, j, y.At(i, j)-mean)
		}
	}
	return out
}
