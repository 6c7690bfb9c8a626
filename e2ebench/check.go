package main

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// quietPeriod is the correlator's default gap in bins, the one ingestd
// runs with when -quiet-period is unset.
const quietPeriod = 8

// verdict is one run's output checked against the injected truth.
type verdict struct {
	injected, missed int
	// falseN over falseOf: backfill, alarms on bins with no injected
	// spike over those bins; live, incidents matching no attack over
	// incidents opened.
	falseN, falseOf int
	// splits counts incidents opened within the quiet period after an
	// incident of the same key closed: one anomaly cut in two.
	splits     int
	sent, lost int
	problems   []string
	// open and close latency samples: first report line minus the due
	// time of the anomaly's first bin; closed line minus the due time
	// of the first bin past the quiet period.
	openLat, closeLat []time.Duration
}

func (v *verdict) problem(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// failed counts the injected anomalies the run did not deliver: every
// one of them when the run itself broke (bins lost, backlog growing,
// ingestd failing), the missed ones otherwise.
func (v *verdict) failed() int {
	if v.lost > 0 || len(v.problems) > 0 {
		return v.injected
	}
	return v.missed
}

// checkOutput checks one ingestd (or replica) output against the
// workload's truth. Every injected spike must be reported at its bin
// with its flow; with -incidents, every attack must open exactly one
// incident with its flow and start bin.
func checkOutput(w *workload, o output, due func(int) time.Time, exitErr error) verdict {
	v := verdict{injected: len(w.truth), sent: w.sessionBins()}
	if exitErr != nil {
		v.problem("ingestd failed: %v", exitErr)
	}
	if o.links != w.topo.NumLinks() {
		v.problem("ingestd banner reports %d links, the workload's topology has %d", o.links, w.topo.NumLinks())
	}
	v.lost = v.sent - (o.processed - w.seqBase)
	if exitErr != nil {
		v.lost = v.sent
	}
	if v.lost != 0 {
		v.problem("%d of %d bins lost (processed %d after bin %d)", v.lost, v.sent, o.processed, w.seqBase)
	}
	if w.rate > 0 {
		// An open loop that outran the server shows as a queue that
		// held more than a quarter second of input.
		if limit := int(w.rate / 4); o.highWater > limit {
			v.problem("backlog grew: queue high-water %d bins exceeds %d", o.highWater, limit)
		}
	}
	name := func(flow int) string { return w.topo.FlowName(flow) }
	if !w.incidents {
		injected := map[int]bool{}
		for _, a := range w.truth {
			for b := 0; b < a.bins; b++ {
				injected[w.seq(a.first+b)] = true
			}
		}
		byBin := map[int]reported{}
		for _, r := range o.alarms {
			byBin[r.bin] = r
			if !injected[r.bin] {
				v.falseN++
			}
		}
		v.falseOf = v.sent - len(injected)
		for _, a := range w.truth {
			r, ok := byBin[w.seq(a.first)]
			if !ok || r.flow != name(a.flow) {
				v.missed++
				continue
			}
			if t := due(a.first); !t.IsZero() {
				v.openLat = append(v.openLat, r.t.Sub(t))
			}
		}
		return v
	}
	type key struct {
		flow  string
		start int
	}
	opens := map[key][]reported{}
	for _, r := range o.opens {
		k := key{r.flow, r.bin}
		opens[k] = append(opens[k], r)
	}
	closes := map[int]closed{}
	for _, c := range o.closes {
		closes[c.id] = c
	}
	matched := 0
	for _, a := range w.truth {
		rs := opens[key{name(a.flow), w.seq(a.first)}]
		if len(rs) != 1 {
			v.missed++
			continue
		}
		matched++
		v.openLat = append(v.openLat, rs[0].t.Sub(due(a.first)))
		if c, ok := closes[rs[0].id]; ok {
			if past := c.end + quietPeriod + 1 - w.seqBase; past < w.sessionBins() {
				v.closeLat = append(v.closeLat, c.t.Sub(due(past)))
			}
		}
	}
	v.falseN, v.falseOf = len(o.opens)-matched, len(o.opens)
	v.splits = len(splitOpens(o))
	return v
}

// splitOpens lists the opens that continue an incident closed too
// early: same key, starting within the quiet period after it ended, so
// the correlator should have merged them. ingestd's 500 ms ticker
// advances the correlator to the processed-bin count, which can run
// ahead of the alarms of a batch the worker has yet to emit; how often
// that cuts an incident depends on timing.
func splitOpens(o output) map[int]bool {
	ends := map[string][]int{}
	for _, c := range o.closes {
		ends[c.key] = append(ends[c.key], c.end)
	}
	split := map[int]bool{}
	for i, r := range o.opens {
		for _, e := range ends[r.key] {
			if e < r.bin && r.bin <= e+quietPeriod {
				split[i] = true
			}
		}
	}
	return split
}

// alarmBins lists the bulk-stream bins an output alarmed on, in order,
// leaving out the probes ahead of it.
func alarmBins(w *workload, o output) []int {
	var out []int
	for _, r := range o.alarms {
		if b := r.bin - w.seqBase - w.lead; b >= 0 {
			out = append(out, b)
		}
	}
	return out
}

// checkReplays reports the first copy of the stream, within the session
// or against the reference session's alarm bins, whose alarm bins differ
// from the first copy's: every replay through a model that never refits
// must alarm on the same bins.
func checkReplays(w *workload, bins, ref []int) error {
	if ref != nil && !slices.Equal(bins, ref) {
		return errors.New("alarm bins differ from the first session's")
	}
	perCopy := make([][]int, w.copies)
	for _, b := range bins {
		c := b / w.bins
		if b < 0 || c >= w.copies {
			return fmt.Errorf("alarm on bin %d outside the stream", b)
		}
		perCopy[c] = append(perCopy[c], b%w.bins)
	}
	for c := 1; c < w.copies; c++ {
		if !slices.Equal(perCopy[c], perCopy[0]) {
			return fmt.Errorf("copy %d of the stream alarmed on %d bins, copy 0 on %d, or on different bins", c, len(perCopy[c]), len(perCopy[0]))
		}
	}
	return nil
}
