// Command diadsd is the always-on DIADS daemon: it drives the simulated
// Figure 1 testbed under a configurable multi-query workload with a SAN
// misconfiguration injected on a schedule, streams every completed run
// through the online monitor, fans detected slowdowns out to the
// concurrent diagnosis service's worker pool, and periodically prints
// the ranked incident report an operator would watch.
//
// With -instances N > 1 it drives a fleet instead: N staggered instances
// stream concurrently into one shared service, the first -degraded of
// them attached to a misconfigured shared SAN pool, and the daemon
// prints the grouped fleet incident view with its per-instance breakdown
// and the cross-instance symptom-learning summary.
//
// Mined-candidate review and persistence (fleet mode): by default
// candidates that pass healthy-corpus validation install automatically.
// -review holds them for an operator instead — validated candidates are
// printed in the admin DSL for a human to adopt — and -ack KIND[,KIND]
// plays the operator, accepting exactly the listed mined kinds.
// -learned FILE loads previously-learned entries (the DSL written by an
// earlier run) into the shared database before streaming and writes the
// union of old and newly-installed entries back afterwards, so learned
// knowledge persists across daemon runs.
//
// Serving mode: -listen ADDR skips the simulator entirely and serves
// the HTTP ingest/query/operator API — external clients POST samples,
// runs, and configuration events per tenant instance, diagnoses run
// against the posted evidence, and incidents/candidates/modules are
// queried back over the same mux, which also carries the full telemetry
// surface (/metrics, /healthz, /readyz, /traces, /debug/pprof). On
// SIGINT/SIGTERM the daemon drains: ingest returns 503, in-flight
// diagnoses finish, -learned is flushed, and the listener closes. See
// API.md for the wire contract.
//
// Telemetry: every layer instruments the process-wide registry, and
// -telemetry ADDR serves it while the daemon runs — /metrics (Prometheus
// text), /healthz, /traces (per-slowdown span streams), and
// /debug/pprof. Structured events go to stderr through log/slog
// (-log-json for one JSON object per line). The end-of-run summary is
// the same registry snapshot /metrics serves, rendered for the console.
// The daemon also watches itself: its per-diagnosis wall times feed a
// dedicated self-monitor whose slowdown events — diadsd diagnosing
// diadsd — are logged like any other detection. -linger keeps the
// process (and the telemetry listener) alive after the run until
// SIGINT/SIGTERM, for scrapes and profile grabs.
//
// Usage:
//
//	diadsd [-seed S] [-workers N] [-chunk MIN] [-report-every N] [-runs N] [-quiet]
//	diadsd -instances N [-degraded M] [-seed S] [-workers N] [-chunk MIN] [-runs N]
//	       [-review] [-ack KIND,KIND] [-learned FILE]
//	diadsd -telemetry 127.0.0.1:9090 [-log-json] [-linger] ...
//	diadsd -listen 127.0.0.1:8080 [-seed S] [-workers N] [-learned FILE] [-log-json]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"diads/internal/api"
	"diads/internal/console"
	"diads/internal/experiments"
	"diads/internal/fleet"
	"diads/internal/monitor"
	"diads/internal/service"
	"diads/internal/simtime"
	"diads/internal/symptoms"
	"diads/internal/telemetry"
	"diads/internal/telemetry/selfmon"
	"diads/internal/testbed"
)

func main() {
	seed := flag.Int64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 4, "diagnosis worker pool size")
	chunkMin := flag.Float64("chunk", 30, "simulation chunk in minutes, the monitoring lag and barrier spacing (0 plays the timeline as one chunk; -instances > 1 defaults to 10 and needs it positive)")
	reportEvery := flag.Int("report-every", 4, "print the incident report every N chunks")
	runs := flag.Int("runs", 16, "Q2 runs to schedule (other queries scale along)")
	instances := flag.Int("instances", 1, "fleet size; above 1 streams a multi-instance fleet")
	shards := flag.Int("shards", 1, "fleet service shards (results are shard-count invariant)")
	degraded := flag.Int("degraded", 0, "instances on the misconfigured shared pool (default 3/4 of the fleet)")
	review := flag.Bool("review", false, "hold validated candidates for operator review instead of auto-accepting")
	ack := flag.String("ack", "", "comma-separated mined kinds the operator accepts (implies -review)")
	learned := flag.String("learned", "", "DSL file to load learned symptom entries from and persist installed ones to")
	quiet := flag.Bool("quiet", false, "suppress per-event output")
	listen := flag.String("listen", "", "serve the HTTP ingest/query/operator API on this address instead of simulating (e.g. 127.0.0.1:8080)")
	idleBatches := flag.Int("idle-batches", 0, "evict a tenant instance idle for this many applied batches (0 disables; incidents survive, state rebuilds on its next batch)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /healthz, /traces, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	logJSON := flag.Bool("log-json", false, "emit structured events as JSON lines")
	linger := flag.Bool("linger", false, "keep serving telemetry after the run until SIGINT/SIGTERM")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	logger := telemetry.NewLogger(os.Stderr, *logJSON)
	slog.SetDefault(logger)

	var srv *telemetry.Server
	if *telemetryAddr != "" {
		srv = telemetry.NewServer(*telemetryAddr, nil, nil)
		addr, err := srv.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, "diadsd: telemetry listener:", err)
			os.Exit(1)
		}
		defer closeTelemetry(srv, logger)
		logger.Info("telemetry listening", "addr", addr,
			"endpoints", "/metrics /healthz /traces /debug/pprof")
	} else if *linger {
		fmt.Fprintln(os.Stderr, "diadsd: -linger needs -telemetry (nothing to serve)")
		os.Exit(2)
	}

	self := selfmon.New()

	var err error
	if *listen != "" {
		// Serving mode has no simulator driving it, so every flag that
		// shapes a simulated timeline is rejected rather than ignored.
		// -telemetry too: the API listener carries the telemetry surface
		// on the same mux.
		for _, unsupported := range []string{"chunk", "report-every", "runs", "instances",
			"shards", "degraded", "review", "ack", "quiet", "linger", "telemetry"} {
			if set[unsupported] {
				fmt.Fprintf(os.Stderr, "diadsd: -%s does not apply with -listen (the API serves posted evidence)\n", unsupported)
				os.Exit(2)
			}
		}
		if err := serve(*listen, *seed, *workers, *idleBatches, *learned, self, logger); err != nil {
			fmt.Fprintln(os.Stderr, "diadsd:", err)
			os.Exit(1)
		}
		drainSelf(self, logger)
		fmt.Println(telemetry.RenderSnapshot(telemetry.Default().Snapshot()))
		return
	}
	if set["idle-batches"] {
		// The idle horizon is a serving-surface lifecycle; simulated
		// fleets bound residency with the shard cap instead.
		fmt.Fprintln(os.Stderr, "diadsd: -idle-batches only applies with -listen")
		os.Exit(2)
	}
	if *instances > 1 {
		// The fleet runs to completion and prints one grouped report;
		// flags that only shape the single-instance streaming loop are
		// rejected rather than silently ignored.
		for _, unsupported := range []string{"report-every", "quiet"} {
			if set[unsupported] {
				fmt.Fprintf(os.Stderr, "diadsd: -%s does not apply with -instances > 1\n", unsupported)
				os.Exit(2)
			}
		}
		chunk := simtime.Duration(0) // fleet default (10 minutes)
		if set["chunk"] {
			if *chunkMin <= 0 {
				fmt.Fprintln(os.Stderr, "diadsd: -chunk must be positive with -instances > 1 (barriers need boundaries)")
				os.Exit(2)
			}
			chunk = simtime.Duration(*chunkMin) * simtime.Minute
		}
		var ackKinds []string
		if *ack != "" {
			*review = true
			for _, k := range strings.Split(*ack, ",") {
				if k = strings.TrimSpace(k); k != "" {
					ackKinds = append(ackKinds, k)
				}
			}
		}
		err = runFleet(fleetOpts{
			seed: *seed, instances: *instances, degraded: *degraded,
			workers: *workers, runs: *runs, chunk: chunk, shards: *shards,
			review: *review, ackKinds: ackKinds, learnedPath: *learned,
			self: self, logger: logger,
		})
	} else {
		for _, unsupported := range []string{"review", "ack", "learned", "shards"} {
			if set[unsupported] {
				fmt.Fprintf(os.Stderr, "diadsd: -%s needs the fleet's learning loop (-instances > 1)\n", unsupported)
				os.Exit(2)
			}
		}
		err = run(*seed, *workers, *chunkMin, *reportEvery, *runs, *quiet, self, logger)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "diadsd:", err)
		os.Exit(1)
	}

	drainSelf(self, logger)
	// One snapshot render for the console — the same data /metrics
	// serves, so the end-of-run summary and the scrape surface cannot
	// drift.
	fmt.Println(telemetry.RenderSnapshot(telemetry.Default().Snapshot()))

	if *linger {
		logger.Info("run complete, lingering for scrapes", "signal", "SIGINT/SIGTERM to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// serve runs the HTTP serving surface until SIGINT/SIGTERM, then drains
// gracefully: ingest stops (503), queued batches apply, in-flight
// diagnoses finish, learned entries flush, and the listener closes.
func serve(addr string, seed int64, workers, idleBatches int, learnedPath string,
	self *selfmon.SelfMonitor, logger *slog.Logger) error {
	symdb, learned, err := loadLearned(learnedPath, logger)
	if err != nil {
		return err
	}
	node := api.New(api.Config{
		Seed:        seed,
		Service:     service.Config{Workers: workers},
		SymDB:       symdb,
		IdleBatches: idleBatches,
	})
	node.Service().Self = self
	srv := telemetry.NewServer(addr, nil, nil)
	node.Mount(srv)
	bound, err := srv.Start()
	if err != nil {
		node.Shutdown()
		return fmt.Errorf("listen: %w", err)
	}
	logger.Info("serving", "addr", bound,
		"endpoints", "/v1/... /metrics /healthz /readyz /traces /debug/pprof")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("signal received, draining", "signal", s.String())
	// Shutdown stops new ingest (503 draining), applies what was already
	// queued, and waits out the diagnosis pool — so the flush below sees
	// every candidate the accepted evidence could mine.
	node.Shutdown()
	if learnedPath != "" {
		if err := saveLearned(learnedPath, learned, node.Learner().Stats(), logger); err != nil {
			return err
		}
	}
	closeTelemetry(srv, logger)
	logger.Info("drained and stopped")
	return nil
}

// closeTelemetry shuts the telemetry listener down; a failure there
// loses nothing but is worth a line in the log.
func closeTelemetry(srv *telemetry.Server, logger *slog.Logger) {
	if err := srv.Close(); err != nil {
		logger.Warn("telemetry listener close", "err", err)
	}
}

// drainSelf surfaces the dogfood loop's findings: slowdown events the
// daemon's self-monitor raised about its own diagnosis latency.
func drainSelf(self *selfmon.SelfMonitor, logger *slog.Logger) {
	for _, ev := range self.Drain() {
		logger.Warn("self-diagnosis: diadsd's own diagnosis latency degraded",
			"query", ev.Query, "kind", string(ev.Kind),
			"factor", fmt.Sprintf("%.2f", ev.Factor),
			"duration", ev.Duration.String(), "baseline", ev.Baseline.String(),
			"trace", ev.TraceID)
	}
	st := self.Stats()
	logger.Info("self-monitor summary",
		"observed", st.Observed, "events", st.Events, "queries", st.Queries)
}

// fleetOpts bundles the fleet-mode flags.
type fleetOpts struct {
	seed                int64
	instances, degraded int
	workers, runs       int
	shards              int
	chunk               simtime.Duration
	review              bool
	ackKinds            []string
	learnedPath         string
	self                *selfmon.SelfMonitor
	logger              *slog.Logger
}

// runFleet drives the multi-instance fleet to the end of its timeline
// and prints the grouped incident view plus the mined-candidate review
// panel. A chunk of 0 uses the fleet default (10 minutes).
func runFleet(o fleetOpts) error {
	if o.degraded <= 0 {
		o.degraded = 3 * o.instances / 4
		if o.degraded < 1 {
			o.degraded = 1
		}
	}
	if o.degraded > o.instances {
		return fmt.Errorf("-degraded %d exceeds -instances %d", o.degraded, o.instances)
	}
	symdb, learned, err := loadLearned(o.learnedPath, o.logger)
	if err != nil {
		return err
	}
	spec := experiments.FleetSpec{
		Seed: o.seed, Instances: o.instances, Degraded: o.degraded,
		Runs: o.runs, Chunk: o.chunk, Workers: o.workers, Shards: o.shards,
		OperatorReview: o.review, AckKinds: o.ackKinds,
		SymDB: symdb, SelfObserver: o.self,
	}
	o.logger.Info("fleet starting", "instances", o.instances,
		"degraded", o.degraded, "shared_pool", string(testbed.PoolP1))
	rep, onsets, err := experiments.RunFleetSpec(spec)
	if err != nil {
		return err
	}
	fmt.Printf("fault onsets %s .. %s (staggered)\n\n",
		onsets[0].Clock(), onsets[o.degraded-1].Clock())
	fmt.Println(console.FleetPanel(rep))
	fmt.Println(console.CandidatesPanel(rep.Learning))
	if o.learnedPath != "" {
		if err := saveLearned(o.learnedPath, learned, rep.Learning, o.logger); err != nil {
			return err
		}
	}
	return nil
}

// loadLearned parses the learned-entry DSL file and returns the built-in
// database with its entries added, plus the learned entries alone (what
// saveLearned extends and writes back). A missing file is an empty
// learned database (first run); an empty path means no file at all.
func loadLearned(path string, logger *slog.Logger) (symdb, learned *symptoms.DB, err error) {
	symdb, learned = symptoms.Builtin(), symptoms.NewDB()
	if path == "" {
		return symdb, learned, nil
	}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, nil, err
	default:
		if learned, err = symptoms.Parse(string(data)); err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	for _, e := range learned.Entries() {
		if err := symdb.Add(e); err != nil {
			return nil, nil, fmt.Errorf("learned entry %s: %w", e.Kind, err)
		}
	}
	logger.Info("loaded learned entries", "count", len(learned.Entries()), "path", path)
	return symdb, learned, nil
}

// saveLearned persists the union of previously-learned entries and this
// run's validated installs back to the DSL file. The write is atomic —
// full body to a temp file in the same directory, then rename — so a
// crash (even SIGKILL) at any instant leaves either the old complete
// file or the new complete file, never a truncated one: learned
// knowledge must survive the daemon dying mid-flush.
func saveLearned(path string, learned *symptoms.DB, st fleet.LearnStats, logger *slog.Logger) error {
	added := 0
	for _, ie := range st.Installed {
		if err := learned.Add(ie.Entry); err != nil {
			return fmt.Errorf("persisting %s: %w", ie.Kind, err)
		}
		added++
	}
	body := "# symptom entries learned by diadsd — reloaded on the next run\n" + learned.Render()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	logger.Info("persisted learned entries", "total", len(learned.Entries()), "new", added, "path", path)
	return nil
}

func run(seed int64, workers int, chunkMin float64, reportEvery, runs int, quiet bool,
	self *selfmon.SelfMonitor, logger *slog.Logger) error {
	if reportEvery < 1 {
		return fmt.Errorf("-report-every must be at least 1, got %d", reportEvery)
	}
	logger.Info("workload starting", "queries", "Q2/Q6/Q14")

	chunks := 0
	spec := experiments.OnlineSpec{Seed: seed, Runs: runs, Workers: workers, SelfObserver: self}
	res, err := experiments.RunOnline(spec, simtime.Duration(chunkMin)*simtime.Minute, func(b fleet.Barrier, alerts []monitor.MetricAlert) error {
		if !quiet {
			// Logged at release (metrics cover the window), not at detection.
			for _, ev := range b.Released {
				logger.Info("slowdown detected", "query", ev.Query,
					"kind", string(ev.Kind), "factor", fmt.Sprintf("%.2f", ev.Factor),
					"at", ev.At.Clock(), "trace", ev.TraceID)
			}
			for _, a := range alerts {
				logger.Info("metric alert", "alert", a.String())
			}
		}
		chunks++
		switch {
		case b.Final:
			fmt.Printf("\n[final %s]\n%s\n", b.Now.Clock(), b.Service.Registry().Render())
		case chunks%reportEvery == 0:
			fmt.Printf("\n[%s]\n%s\n", b.Now.Clock(), b.Service.Registry().Render())
		}
		return nil
	})
	if err != nil {
		return err
	}

	if len(res.Incidents) == 0 {
		return fmt.Errorf("no incidents diagnosed")
	}
	top := res.Incidents[0]
	fmt.Printf("\ntop incident: %s %s(%s) — impact %.1fs over %d events\n",
		top.Query, top.Kind, top.Subject, top.EstImpact(), top.Events)
	if top.Result != nil {
		fmt.Println()
		fmt.Println(top.Result.Render())
	}
	if top.Trace != nil {
		fmt.Println(console.TimingPanel(top.Trace))
	}
	return nil
}
