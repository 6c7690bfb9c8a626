// Package netanomaly diagnoses network-wide traffic anomalies from link
// measurements using the PCA subspace method of Lakhina, Crovella and
// Diot, "Diagnosing Network-Wide Traffic Anomalies" (SIGCOMM 2004).
//
// The method separates the space of link traffic measurements into a
// normal subspace capturing the predictable, network-wide structure
// (diurnal cycles, weekly patterns) and an anomalous subspace containing
// the residual. Volume anomalies — sudden traffic changes in an
// origin-destination (OD) flow — barely perturb total traffic but stand
// out sharply in the residual. The library performs the paper's three
// diagnosis steps:
//
//   - Detection: flag timesteps whose squared prediction error exceeds
//     the Q-statistic threshold (Jackson & Mudholkar).
//   - Identification: choose the OD flow whose routing-matrix direction
//     best explains the residual.
//   - Quantification: estimate the anomalous byte count.
//
// # Quick start
//
//	topo := netanomaly.Abilene()
//	cfg := netanomaly.DefaultTrafficConfig(42)
//	od, _ := netanomaly.GenerateTraffic(topo, cfg)   // or load real data
//	links := netanomaly.LinkLoads(topo, od)
//	diag, _ := netanomaly.NewDiagnoser(links, topo, netanomaly.Options{})
//	for _, a := range diag.DiagnoseSeries(links) {
//	    fmt.Printf("bin %d: flow %s, ~%.0f bytes\n",
//	        a.Bin, topo.FlowName(a.Flow), a.Bytes)
//	}
//
// # Streaming and the concurrent engine
//
// Section 7.1 of the paper frames the subspace method as a first-level
// online monitor. Two layers serve that deployment:
//
// OnlineDetector is the single-stream primitive: it tests each arriving
// measurement against a model fitted on a sliding window. The active
// model lives behind an atomic pointer, so Process is lock-free with
// respect to model fitting; when the refit interval elapses the O(m^3)
// refit runs in a background goroutine on a window snapshot and the new
// model is swapped in atomically. A failed refit keeps the previous
// model in force. ProcessBatch pushes a whole bins x links block through
// the batched low-rank SPE kernel (O(m*rank) per bin instead of O(m^2)).
//
// Monitor (internal/engine, surfaced as NewMonitor/AddView) is the
// scale-out layer: one detector shard per registered traffic view
// (topology, vantage point, customer network), measurement batches
// fanned across a worker pool. Batches within a view are processed
// strictly in ingest order — sequence numbers match arrival — while
// different views run concurrently; a refit in one view never stalls
// ingestion in any view. Use Monitor when tracking several topologies or
// feeding one high-rate stream in batches; use OnlineDetector directly
// for a simple bin-by-bin loop. IngestStream consumes a live measurement
// channel (StreamMatrix, or any collector producing LinkMeasurement)
// and keeps the batched hot path hot for bin-at-a-time sources.
//
// The engine is load-safe: WithMaxPending bounds each view's queue,
// WithOverloadPolicy picks what a full queue does (OverloadBlock
// backpressure through IngestStream to the collector, OverloadDropOldest
// freshness under DoS-style surges, OverloadError shedding), and
// WithAutoscale lets the worker pool grow and shrink with the observed
// backlog while per-view ordering is preserved across every resize.
// Monitor.Stats and Monitor.QueueStats report queue depth, drops and
// the pool's high-water mark; see the "Operating under load" section of
// docs/BACKENDS.md for policy selection and sizing guidance.
//
//	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{
//	    RefitEvery: 1008,
//	    OnAlarm: func(a netanomaly.MonitorAlarm) {
//	        log.Printf("%s: bin %d flow %d ~%.0f bytes", a.View, a.Seq, a.Flow, a.Bytes)
//	    },
//	})
//	_ = netanomaly.AddView(mon, "backbone", history, topo)
//	_ = mon.Ingest("backbone", batch) // asynchronous; Flush() to drain
//
// # Detector backends
//
// The paper's method is a family, not one detector, and every member
// streams behind the same ViewDetector interface (Seed / ProcessBatch /
// Refit / Stats), so one Monitor can mix backends freely. AddView
// selects the implementation per view; docs/BACKENDS.md is the full
// selection guide (cost models, what each kind localizes, seed
// requirements, tuning knobs):
//
//   - DetectorSubspace (default): the windowed subspace method above.
//     Pick it when you want the paper's exact semantics, per-bin flow
//     identification, and refit cost is acceptable (full SVD over the
//     window).
//   - DetectorSketch (WithSketchSize, WithDriftTolerance): maintains
//     the same model from a Frequent-Directions sketch of the
//     covariance — O(l x m) memory instead of a window of raw bins, and
//     a rebuild solves only the small l x l sketch eigenproblem (over
//     1000x cheaper than the window SVD at m=120, see
//     BenchmarkSketchRefit), so it scales to large link counts and
//     frequent refits — use it when traffic drifts. At l = 2x rank it
//     flags the same bins as the subspace backend on the spike trace.
//     WithDriftTolerance skips rebuild swaps while the residual
//     projector has moved less than the tolerance, exploiting the
//     paper's observation that P P^T is stable week to week.
//   - DetectorMultiFlow (WithMetrics, WithQuorum): one subspace model
//     per traffic metric — bytes, IP-flow counts, mean packet size
//     (Section 7.2) — over shared routing, with history and batches
//     column-stacked (DeriveLinkMetrics / StackMatrices). Quorum 1
//     (default) alarms when any metric flags a bin, which is what
//     catches port scans and small-flow DDoS that move flow counts
//     without moving bytes; raise the quorum to demand agreement and
//     suppress single-metric noise.
//   - DetectorEWMA / DetectorFourier (WithAlpha, WithThresholdK): the
//     paper's temporal forecasting baselines (Sections 6.2, 7.3),
//     streaming. Each link is forecast independently — incremental EWMA
//     (alpha grid-searched at seed when unset), or a sinusoid-basis fit
//     refit in the background on a window snapshot — and a link alarms
//     when its residual exceeds an adaptive threshold: mean + k*sigma
//     of its exponentially tracked residuals, re-estimated from the
//     retained window on every refit, so thresholds follow the traffic
//     level. Alarmed bins are withheld from forecaster state, which
//     suppresses the footnote-4 spike echo online. These are the
//     cheapest backends (no matrix pass for EWMA — see
//     BenchmarkForecastProcessBatch) and good per-link change
//     detectors, but they cannot identify the OD flow behind an alarm
//     (Diagnosis.Flow is -1) and their detection degrades as per-link
//     variability grows relative to anomaly size — the regime where
//     the subspace method's cross-link correlation wins (Section 7.3;
//     run examples/compare for the head-to-head on one scenario).
//   - DetectorHybrid (WithTriageKind, WithEscalation): the
//     triage→identification composition. A forecast stage sees every
//     bin at recursion cost and escalates alarmed bins to a windowed
//     subspace stage that attributes the responsible OD flow, so
//     steady-state cost is forecast-level (within ~1.1x on clean
//     streams, BenchmarkHybridThroughput) while alarms carry Flow and
//     Bytes. Escalation is immediate, confirm-after-n, or always
//     (subspace-grade detection, for measuring triage misses); the
//     subspace stage stays fresh via background re-seeds from the
//     hybrid's window of recent clean bins. This is the operating
//     point the paper's Section 6.2/7.3 trade points at: temporal
//     methods localize in time+link cheaply, the subspace method
//     identifies the flow — the hybrid does both.
//
// Everything is deterministic in the provided seeds and uses only the
// standard library. The subpackages under internal/ implement the
// substrates: dense linear algebra (internal/mat, with blocked and
// goroutine-parallel multiply kernels), network topology and routing
// (internal/topology), the traffic model (internal/traffic), the
// simulated measurement plane and the multi-metric backend
// (internal/netmeas), offline temporal baselines (internal/timeseries)
// and their streaming detector forms (internal/forecast), the
// subspace method, the ViewDetector contract and the sketch backend
// (internal/core), the concurrent streaming engine
// (internal/engine), and the paper's full evaluation (internal/eval,
// internal/experiments).
package netanomaly
