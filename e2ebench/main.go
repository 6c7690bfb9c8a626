// Command e2ebench is the repository benchmark. It generates one
// workload's inputs from --seed, drives the real ingestd binary over
// one loopback TCP connection per session, checks every alarm and
// incident line against the injected truth, and prints the end-to-end
// metrics. With --trace 1 it instead rebuilds ingestd's path in process
// from the internal packages, records a span around every call into a
// layer, and prints per-layer metrics. run.sh builds both binaries from
// the checkout and runs this one:
//
//	bash e2ebench/run.sh --workload backfill-subspace --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A wrong output makes the command exit nonzero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	ingestd  string
	work     string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "backfill-subspace, backfill-sketch or live-incidents")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: traffic, spike flows and (backfill-sketch) topology")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: the traced in-process replica's per-layer metrics; 2: both, one after the other")
	flag.StringVar(&cfg.ingestd, "ingestd", "", "path to the ingestd binary built from the checkout (required)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for history files and checkpoints (required)")
	flag.Parse()
	if traceFlag < 0 || traceFlag > 2 {
		fatal(fmt.Errorf("-trace %d: want 0, 1 or 2", traceFlag))
	}
	cfg.trace = traceFlag
	if cfg.ingestd == "" || cfg.work == "" {
		fatal(errors.New("-ingestd and -work are required (run.sh sets them)"))
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

// env is a workload's untimed set-up: inputs generated and the files
// ingestd reads written.
type env struct {
	w           *workload
	historyPath string
	ckpt        []byte // warm-restart checkpoint every live session restores
	dir         string
}

func setup(cfg config) (*env, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, dir: dir}
	if e.historyPath, err = w.writeHistory(dir); err != nil {
		return nil, err
	}
	if w.preroll != nil {
		if e.ckpt, err = makeCheckpoint(cfg.ingestd, w, e.historyPath, dir); err != nil {
			return nil, fmt.Errorf("warm-restart checkpoint: %w", err)
		}
	}
	return e, nil
}

// ckptDir gives a session its own copy of the warm-restart checkpoint
// (ingestd rewrites the file as it runs); "" when the workload has none.
func (e *env) ckptDir(i int) (string, error) {
	if e.ckpt == nil {
		return "", nil
	}
	d := filepath.Join(e.dir, fmt.Sprintf("ckpt-%d", i))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, os.WriteFile(filepath.Join(d, "checkpoint.nams"), e.ckpt, 0o644)
}

func run(cfg config) (*result, error) {
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	printHost()
	switch cfg.trace {
	case 1:
		return runTraced(cfg, e)
	case 2:
		res, err := runEndToEnd(cfg, e)
		if err != nil {
			return nil, err
		}
		traced, err := runTraced(cfg, e)
		if err != nil {
			return nil, err
		}
		res.Correct = res.Correct && traced.Correct
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		maps.Copy(res.Metrics, traced.Metrics)
		return res, nil
	}
	return runEndToEnd(cfg, e)
}

func printHost() {
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s, traffic over loopback TCP (127.0.0.1), one connection per session\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// minSessions keeps every median over at least this many ingestd runs.
const minSessions = 3

// another reports whether a run that began at begin, has made n
// sessions and took last over the latest one should start one more:
// always until minSessions, then while it would still end within the
// measuring time.
func another(begin time.Time, n int, last time.Duration, seconds float64) bool {
	return n < minSessions || (time.Since(begin)+last).Seconds() <= seconds
}

// runEndToEnd runs ingestd sessions until --seconds have passed and
// reports the untraced end-to-end metrics.
func runEndToEnd(cfg config, e *env) (*result, error) {
	w := e.w
	var (
		setupS, rate, cpu, rss []float64
		openLat, closeLat, lag []time.Duration
		refBins                []int
		v                      verdict
		res                    = &result{Correct: true}
	)
	begin := time.Now()
	var last time.Duration
	for i := 0; another(begin, i, last, cfg.seconds); i++ {
		t := time.Now()
		dir, err := e.ckptDir(i)
		if err != nil {
			return nil, err
		}
		s, err := runSession(cfg.ingestd, w, e.historyPath, dir)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		os.RemoveAll(dir)
		sv := checkOutput(w, s.out, s.due, s.exitErr)
		if i == 0 {
			if err := selfTest(w, s.out, s.due); err != nil {
				sv.problem("self-test: %v", err)
			}
		}
		if w.copies > 1 {
			bins := alarmBins(w, s.out)
			if err := checkReplays(w, bins, refBins); err != nil {
				sv.problem("replays: %v", err)
			}
			if i == 0 {
				refBins = bins
			}
		}
		if sv.missed > 0 {
			fmt.Printf("session %d: FAIL %d of %d anomalies not reported at their bin with their flow\n", i, sv.missed, sv.injected)
		}
		for _, p := range sv.problems {
			fmt.Printf("session %d: FAIL %s\n", i, p)
			if s.stderr != "" {
				fmt.Printf("session %d: ingestd stderr: %s\n", i, s.stderr)
			}
		}
		res.Attempted += sv.injected
		res.Failed += sv.failed()
		if len(sv.problems) > 0 || sv.missed > 0 {
			res.Correct = false
		}
		v.merge(sv)
		setup := s.ready.Sub(s.start).Seconds()
		binsPerS := 0.0 // a session that never finished processed nothing
		if !s.out.done.IsZero() {
			binsPerS = float64(w.sessionBins()-w.lead) / s.out.done.Sub(s.firstByte).Seconds()
		}
		cpuPerBin := float64((s.cpuTotal - s.cpuAtReady).Microseconds()) / float64(max(s.out.processed-w.seqBase, 1))
		peak := float64(s.peakRSSKiB) / 1024
		fmt.Printf("session %d: setup %.4fs, %.6g bins/s, %.4g us/bin, %.1f MiB\n", i, setup, binsPerS, cpuPerBin, peak)
		setupS, rate, cpu, rss = append(setupS, setup), append(rate, binsPerS), append(cpu, cpuPerBin), append(rss, peak)
		openLat = append(openLat, sv.openLat...)
		closeLat = append(closeLat, sv.closeLat...)
		lag = append(lag, s.sendLag...)
		last = time.Since(t)
	}
	n := len(setupS)
	fmt.Printf("workload %s: seed %d, %d sessions of %d bins, %d anomalies each; %s\n",
		w.name, cfg.seed, n, w.sessionBins(), len(w.truth), w.describe())
	res.Metrics = map[string]metric{}
	report := func(name, unit string, value float64, samples int) {
		res.Metrics[name] = metric{Value: value, Unit: unit}
		fmt.Printf("  %-16s %14.6g %-7s (%d samples)\n", name, value, unit, samples)
	}
	report("setup_s", "s", median(setupS), n)
	report("bins_per_s", "bins/s", median(rate), n)
	report("cpu_us_per_bin", "us", median(cpu), n)
	report("peak_rss_mb", "MiB", median(rss), n)
	// The bounded latency is the 10th percentile: a shared host can
	// alternate between two speeds some 1.5x apart, with the share of
	// slow time drifting over minutes. That moves the median between
	// the modes, while the fast mode, and the low percentiles with it,
	// stays put.
	report("open_ms_p10", "ms", ms(quantileDur(openLat, 0.1)), len(openLat))
	fmt.Println("  not bounded (a median or tail that swings with the host, zero on a correct run, or not defined on every workload):")
	info := func(name, unit string, value float64, samples int) {
		fmt.Printf("  %-16s %14.6g %-7s (%d samples)\n", name, value, unit, samples)
	}
	infoTail := func(name string, ds []time.Duration) {
		p, suffix := tailQuantile(len(ds))
		info(name+suffix, "ms", ms(quantileDur(ds, p)), len(ds))
	}
	info("open_ms_p50", "ms", ms(quantileDur(openLat, 0.5)), len(openLat))
	infoTail("open_ms_", openLat)
	if len(closeLat) > 0 {
		info("close_ms_p50", "ms", ms(quantileDur(closeLat, 0.5)), len(closeLat))
		infoTail("close_ms_", closeLat)
	}
	if len(lag) > 0 {
		infoTail("send_lag_ms_", lag)
	}
	info("lost_bins_frac", "ratio", frac(v.lost, v.sent), v.sent)
	info("miss_frac", "ratio", frac(v.missed, v.injected), v.injected)
	info("false_frac", "ratio", frac(v.falseN, v.falseOf), v.falseOf)
	if w.incidents {
		info("split_incidents", "count", float64(v.splits), v.falseOf)
	}
	return res, nil
}

func (v *verdict) merge(o verdict) {
	v.injected += o.injected
	v.missed += o.missed
	v.falseN += o.falseN
	v.falseOf += o.falseOf
	v.sent += o.sent
	v.lost += o.lost
	v.splits += o.splits
}

// selfTest proves the output check fires: the same output must fail
// against a truth carrying one spike the stream never had, and with
// the report of one injected anomaly deleted.
func selfTest(w *workload, o output, due func(int) time.Time) error {
	extra := *w
	a := w.truth[0]
	a.first = w.truth[0].first + (w.truth[1].first-w.truth[0].first)/2
	extra.truth = append([]anomaly{a}, w.truth...)
	if got := checkOutput(&extra, o, due, nil); got.missed == 0 {
		return errors.New("a spike absent from the stream was not reported missing")
	}
	cut := o
	cut.alarms = slices.DeleteFunc(slices.Clone(o.alarms), func(r reported) bool { return r.bin == w.seq(w.truth[0].first) })
	cut.opens = slices.DeleteFunc(slices.Clone(o.opens), func(r reported) bool { return r.bin == w.seq(w.truth[0].first) })
	if got := checkOutput(w, cut, due, nil); got.missed == 0 {
		return errors.New("deleting the first anomaly's report went unnoticed")
	}
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p95 and p90 that leaves at least
// ten of n samples beyond it, with its name suffix; p90 otherwise.
func tailQuantile(n int) (float64, string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 200:
		return 0.95, "p95"
	}
	return 0.9, "p90"
}

// quantile interpolates between order statistics; 0 when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func quantileDur(ds []time.Duration, p float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, p))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
