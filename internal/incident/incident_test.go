package incident

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"netanomaly/internal/core"
)

func alarm(seq, flow int, spe float64) core.Alarm {
	return core.Alarm{Seq: seq, Diagnosis: core.Diagnosis{
		Bin: seq, SPE: spe, Threshold: 1, Flow: flow, Bytes: spe * 10,
	}}
}

// recorder collects events in order; safe because the correlator emits
// under its lock.
type recorder struct {
	events []Event
}

func (r *recorder) on(e Event) { r.events = append(r.events, e) }

func (r *recorder) byType(t EventType) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// TestDisjointFlowsStayTwoIncidents is the first incident-layer edge
// case from the issue: two overlapping anomalies on disjoint flows must
// not merge.
func TestDisjointFlowsStayTwoIncidents(t *testing.T) {
	var rec recorder
	c := New(Config{QuietPeriod: 4, OnEvent: rec.on})
	for seq := 100; seq < 108; seq++ {
		c.Observe("net", alarm(seq, 7, 5))
		c.Observe("net", alarm(seq, 21, 3))
	}
	c.Flush()
	if got := c.Stats().Opened; got != 2 {
		t.Fatalf("opened %d incidents, want 2", got)
	}
	closed := rec.byType(Closed)
	if len(closed) != 2 {
		t.Fatalf("closed %d incidents, want 2", len(closed))
	}
	for _, e := range closed {
		inc := e.Incident
		if inc.StartSeq != 100 || inc.EndSeq != 107 || inc.Alarms != 8 {
			t.Errorf("incident %+v: want span 100..107 with 8 alarms", inc)
		}
		if inc.Key.Flow != 7 && inc.Key.Flow != 21 {
			t.Errorf("incident keyed on flow %d, want 7 or 21", inc.Key.Flow)
		}
	}
	if closed[0].Incident.Key.Flow == closed[1].Incident.Key.Flow {
		t.Errorf("both incidents keyed on flow %d", closed[0].Incident.Key.Flow)
	}
}

// TestCrossViewMerge is the second edge case: the same attributed flow
// seen by two views is one incident with both views agreeing (and the
// agreement doubling severity).
func TestCrossViewMerge(t *testing.T) {
	var rec recorder
	c := New(Config{QuietPeriod: 4, OnEvent: rec.on})
	for seq := 50; seq < 54; seq++ {
		c.Observe("bytes-view", alarm(seq, 7, 5))
		c.Observe("flows-view", alarm(seq, 7, 9))
	}
	c.Flush()
	closed := rec.byType(Closed)
	if len(closed) != 1 {
		t.Fatalf("closed %d incidents, want 1", len(closed))
	}
	inc := closed[0].Incident
	if want := []string{"bytes-view", "flows-view"}; !reflect.DeepEqual(inc.Views, want) {
		t.Errorf("views %v, want %v", inc.Views, want)
	}
	if inc.PeakSPE != 9 || inc.Alarms != 8 {
		t.Errorf("peak %v alarms %d, want peak 9 from 8 alarms", inc.PeakSPE, inc.Alarms)
	}
	// Severity: peak 9 x 4 bins x 2 views.
	if got, want := inc.Severity(), 9.0*4*2; got != want {
		t.Errorf("severity %v, want %v", got, want)
	}
}

// Unattributed alarms (Flow = -1) correlate per emitting view: two
// views raising them concurrently stay two incidents, keyed by region.
func TestUnattributedAlarmsKeyPerView(t *testing.T) {
	c := New(Config{QuietPeriod: 4})
	for seq := 10; seq < 14; seq++ {
		c.Observe("east", alarm(seq, -1, 2))
		c.Observe("west", alarm(seq, -1, 2))
	}
	open := c.Open()
	if len(open) != 2 {
		t.Fatalf("%d open incidents, want 2", len(open))
	}
	regions := map[string]bool{}
	for _, inc := range open {
		if inc.Key.Flow != -1 {
			t.Errorf("incident flow %d, want -1", inc.Key.Flow)
		}
		regions[inc.Key.Region] = true
	}
	if !regions["east"] || !regions["west"] {
		t.Errorf("regions %v, want east and west", regions)
	}
}

// A gap wider than the quiet period on the same key closes the first
// incident and opens a second; a gap inside it merges.
func TestQuietPeriodSplitsAndMerges(t *testing.T) {
	var rec recorder
	c := New(Config{QuietPeriod: 4, OnEvent: rec.on})
	c.Observe("net", alarm(100, 7, 5))
	c.Observe("net", alarm(104, 7, 5)) // gap 4 == quiet: merges
	c.Observe("net", alarm(109, 7, 5)) // gap 5 > quiet: splits
	c.Flush()
	if got := c.Stats().Opened; got != 2 {
		t.Fatalf("opened %d incidents, want 2", got)
	}
	first := rec.byType(Closed)[0].Incident
	if first.StartSeq != 100 || first.EndSeq != 104 {
		t.Errorf("first incident spans %d..%d, want 100..104", first.StartSeq, first.EndSeq)
	}
}

// Advance is the no-alarm clock: an open incident closes once the
// stream moves a full quiet period past its last alarm, and not before.
func TestAdvanceClosesOnTime(t *testing.T) {
	var rec recorder
	c := New(Config{QuietPeriod: 4, OnEvent: rec.on})
	c.Observe("net", alarm(100, 7, 5))
	c.Advance(104)
	if n := c.Stats().Open; n != 1 {
		t.Fatalf("incident closed at watermark 104 inside quiet period")
	}
	c.Advance(105)
	if n := c.Stats().Open; n != 0 {
		t.Fatalf("incident still open at watermark 105 past quiet period")
	}
	if len(rec.byType(Closed)) != 1 {
		t.Fatalf("no Closed event emitted")
	}
}

// An unrelated alarm's sequence number also advances the clock.
func TestObserveAdvancesClock(t *testing.T) {
	c := New(Config{QuietPeriod: 4})
	c.Observe("net", alarm(100, 7, 5))
	c.Observe("net", alarm(200, 9, 5))
	open := c.Open()
	if len(open) != 1 || open[0].Key.Flow != 9 {
		t.Fatalf("open table %+v, want only flow 9", open)
	}
}

// The live table is bounded: exceeding MaxLive force-closes the stalest
// open incident.
func TestMaxLiveEvicts(t *testing.T) {
	var rec recorder
	c := New(Config{QuietPeriod: 100, MaxLive: 3, OnEvent: rec.on})
	for f := 0; f < 4; f++ {
		c.Observe("net", alarm(10+f, f, 5))
	}
	st := c.Stats()
	if st.Open != 3 || st.Evicted != 1 {
		t.Fatalf("stats %+v, want 3 open and 1 evicted", st)
	}
	closed := rec.byType(Closed)
	if len(closed) != 1 || closed[0].Incident.Key.Flow != 0 {
		t.Fatalf("evicted %+v, want the stalest (flow 0)", closed)
	}
}

// TestSnapshotResumeConformance is the issue's checkpoint leg: split an
// alarm stream mid-incident, snapshot, restore into a fresh correlator,
// and the union of events must match an uninterrupted run — the open
// incident is neither duplicated (no second Opened) nor lost, the
// re-encoded snapshot is byte-identical, and final stats agree.
func TestSnapshotResumeConformance(t *testing.T) {
	// Two incidents: flow 7 spans the split point, flow 21 opens after.
	feed := func(c *Correlator, from, to int) {
		for seq := from; seq < to; seq++ {
			if seq >= 100 && seq < 112 {
				c.Observe("net", alarm(seq, 7, 5))
			}
			if seq >= 120 && seq < 124 {
				c.Observe("net", alarm(seq, 21, 3))
			}
		}
		c.Advance(to - 1)
	}

	var whole recorder
	ref := New(Config{QuietPeriod: 4, OnEvent: whole.on})
	feed(ref, 0, 200)
	ref.Flush()

	const split = 106 // inside flow 7's span
	var first recorder
	a := New(Config{QuietPeriod: 4, OnEvent: first.on})
	feed(a, 0, split)
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	var second recorder
	b := New(Config{QuietPeriod: 4, OnEvent: second.on})
	if err := b.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var again bytes.Buffer
	if err := b.Snapshot(&again); err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatalf("restored snapshot re-encodes differently: %d vs %d bytes", snap.Len(), again.Len())
	}
	feed(b, split, 200)
	b.Flush()

	resumed := append(append([]Event{}, first.events...), second.events...)
	if !reflect.DeepEqual(whole.events, resumed) {
		t.Fatalf("event streams diverge:\nwhole   %+v\nresumed %+v", whole.events, resumed)
	}
	if w, r := ref.Stats(), b.Stats(); !reflect.DeepEqual(w, r) {
		t.Fatalf("stats diverge: whole %+v, resumed %+v", w, r)
	}
	// The conformance above implies it, but assert the headline
	// directly: exactly one Opened for the split-spanning incident.
	var openedFlow7 int
	for _, e := range resumed {
		if e.Type == Opened && e.Incident.Key.Flow == 7 {
			openedFlow7++
		}
	}
	if openedFlow7 != 1 {
		t.Fatalf("flow 7 opened %d times across the restart, want 1", openedFlow7)
	}
}

// Observe is called from the Monitor's worker goroutines concurrently;
// run interleaved observers under -race and check totals.
func TestObserveConcurrent(t *testing.T) {
	c := New(Config{QuietPeriod: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := 0; seq < 100; seq++ {
				c.Observe(fmt.Sprintf("view%d", g%2), alarm(seq, g%4, 5))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Open != 4 {
		t.Fatalf("%d open incidents, want 4 (one per flow)", st.Open)
	}
	if st.Opened+st.Merged != 800 {
		t.Fatalf("opened %d + merged %d alarms, want 800", st.Opened, st.Merged)
	}
}

func TestRestoreRejections(t *testing.T) {
	mutate := func(t *testing.T, f func(*Correlator)) []byte {
		t.Helper()
		c := New(Config{QuietPeriod: 4})
		if f != nil {
			f(c)
		}
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return buf.Bytes()
	}

	t.Run("wrong kind", func(t *testing.T) {
		blob := mutate(t, nil)
		blob[5] = core.SnapKindSubspace
		err := New(Config{}).Restore(bytes.NewReader(blob))
		if !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Fatalf("err %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		blob := mutate(t, func(c *Correlator) { c.Observe("net", alarm(5, 3, 2)) })
		err := New(Config{}).Restore(bytes.NewReader(blob[:len(blob)-4]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("roundtrip with live table", func(t *testing.T) {
		blob := mutate(t, func(c *Correlator) {
			c.Observe("net", alarm(5, 3, 2))
			c.Observe("other", alarm(6, -1, 1))
		})
		c := New(Config{})
		if err := c.Restore(bytes.NewReader(blob)); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if got := c.Open(); len(got) != 2 {
			t.Fatalf("restored %d open incidents, want 2", len(got))
		}
	})
}

// FuzzRestoreIncidents throws arbitrary bytes at a correlator's
// Restore: any input must either restore cleanly or fail with a
// classified error (format, mismatch, or truncation) — never a panic —
// and an accepted envelope must re-encode byte-for-byte.
func FuzzRestoreIncidents(f *testing.F) {
	live := New(Config{QuietPeriod: 4})
	live.Observe("net", alarm(5, 3, 2))
	live.Observe("other", alarm(6, -1, 1))
	live.Observe("net", alarm(7, 3, 4))
	var valid bytes.Buffer
	if err := live.Snapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	lying := bytes.Clone(valid.Bytes())
	lying[6] -= 8 // payload length (little-endian) now short of the payload
	f.Add(lying)
	wrongKind := bytes.Clone(valid.Bytes())
	wrongKind[5] = core.SnapKindMonitor
	f.Add(wrongKind)
	// One shared correlator: Restore decodes into locals and commits
	// only on success, so a failed iteration leaves no partial state and
	// a successful one fully defines the state the canonical check
	// re-encodes.
	c := New(Config{QuietPeriod: 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		err := c.Restore(r)
		if err != nil {
			if !errors.Is(err, core.ErrSnapshotFormat) &&
				!errors.Is(err, core.ErrSnapshotMismatch) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unclassified restore error: %v", err)
			}
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := c.Snapshot(&out); err != nil {
			t.Fatalf("snapshot after accepted restore: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("accepted envelope is not canonical: consumed %d bytes, re-encoded %d", len(consumed), out.Len())
		}
	})
}
