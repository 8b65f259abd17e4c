// Command rcoal-experiments reproduces the RCoal paper's evaluation:
// every figure and table has a registered experiment that prints its
// data as an ASCII table or chart.
//
// Usage:
//
//	rcoal-experiments -list
//	rcoal-experiments -run fig6
//	rcoal-experiments -run all -samples 100 -seed 7
//	rcoal-experiments -run all -journal ckpt          # checkpoint finished cells
//	rcoal-experiments -run all -journal ckpt -resume  # skip journaled cells
//	rcoal-experiments -run all -accel                 # shared AES trace cache (byte-identical)
//	rcoal-experiments -run all -cache cachedir        # reuse cells from any prior identical sweep
//	rcoal-experiments -worker http://host:8077        # compute cells for a rcoal-coordinator
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rcoal/internal/atomicio"
	"rcoal/internal/chaos"
	"rcoal/internal/cliutil"
	"rcoal/internal/dist"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
	"rcoal/internal/gpusim/tracevis"
	"rcoal/internal/kernels"
	"rcoal/internal/obs"
	"rcoal/internal/runner"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiment IDs")
		run      = flag.String("run", "", "experiment ID to run, or \"all\"")
		samples  = flag.Int("samples", 100, "plaintext timing samples per configuration")
		lines    = flag.Int("lines", 32, "plaintext lines per sample (fig18 always uses 1024)")
		seed     = flag.Uint64("seed", 0x8C0A1, "master random seed")
		key      = flag.String("key", "RCoal eval key 1", "AES key (16/24/32 bytes)")
		csvDir   = flag.String("csv", "", "directory to write <id>.csv data files into (optional)")
		par      = flag.Int("parallel", 1, "experiments to run concurrently (they are independent and deterministic)")
		workers  = flag.Int("workers", 0, "cells evaluated concurrently inside each experiment; 0 = GOMAXPROCS, 1 = serial (results are identical at any setting)")
		prog     = flag.Bool("progress", false, "report per-experiment cell progress on stderr")
		jdir     = flag.String("journal", "", "directory for per-experiment checkpoint journals (<id>.journal); completed cells survive crashes")
		resume   = flag.Bool("resume", false, "resume from existing journals, skipping journaled cells (requires -journal)")
		cellTO   = flag.Duration("cell-timeout", 0, "per-cell time budget; 0 = unlimited")
		retries  = flag.Int("retries", 0, "extra attempts for cells failing with a retryable fault")
		traceOut = flag.String("trace-out", "", "write a Chrome/Perfetto trace of every simulated launch to this file (large; best with a single small experiment)")
		hb       = flag.Duration("heartbeat", 0, "period of the live telemetry line on stderr (cells done, rate, eta, worker utilization); 0 = off")
		maddr    = flag.String("metrics-addr", "", "serve live run telemetry over HTTP expvar at this address (e.g. localhost:6060/debug/vars)")
		accel    = flag.Bool("accel", false, "share one AES trace cache across every cell of the run (results are byte-identical; uses more memory)")
		cdir     = flag.String("cache", "", "directory for the content-addressed results store: cells computed by any prior run of any experiment under identical result-determining options are restored instead of re-run")
		mechs    = flag.String("mechanisms", "", "comma-separated defense specs restricting mechanism-enumerating experiments (ext-defense-frontier), e.g. \"baseline,rss+rts:8,delay:64\"; empty = full registry")
		worker   = flag.String("worker", "", "run as a distributed worker for the rcoal-coordinator at this base URL (e.g. http://host:8077) instead of running experiments locally; -workers bounds concurrent cells")
		workerID = flag.String("worker-id", "", "worker name in the coordinator's ledger and status page; default host:pid")
		chaosSee = flag.Uint64("chaos-seed", 0, "worker mode: inject deterministic network faults on every coordinator request from this seed's schedule (internal/chaos; testing only); 0 = off")
		degrade  = flag.String("degraded-journal", "", "worker mode: local checkpoint journal for degraded standalone mode — completions undeliverable for -degraded-after park here instead of being lost and replay on the next run")
		degAfter = flag.Duration("degraded-after", 30*time.Second, "worker mode: delivery-failure window before a completion is parked (requires -degraded-journal)")
		reqTO    = flag.Duration("request-timeout", 30*time.Second, "worker mode: per-request HTTP timeout toward the coordinator")
		logJSON  = flag.Bool("log-json", false, "emit structured lifecycle events as JSON lines on stderr (heartbeats, lease lifecycle in worker mode)")
		logLevel = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error (with -log-json)")
		flight   = flag.String("flight-out", "", "dump the in-memory flight recorder (last events at every level) to this file on watchdog trips, cell panics, or degraded-mode entry")
	)
	flag.Parse()

	if *resume && *jdir == "" {
		fmt.Fprintln(os.Stderr, "rcoal-experiments: -resume requires -journal")
		os.Exit(2)
	}
	if err := cliutil.CheckOutputs(*csvDir, *traceOut, *flight); err != nil {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: %v\n", err)
		os.Exit(2)
	}
	mechSpecs, err := cliutil.ParseMechanisms(*mechs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: %v\n", err)
		os.Exit(2)
	}

	if *worker != "" {
		os.Exit(runWorker(workerConfig{
			coordinator: *worker, id: *workerID, concurrency: *workers, verbose: *prog,
			chaosSeed: *chaosSee, degradedPath: *degrade, degradedAfter: *degAfter,
			requestTimeout: *reqTO,
			metricsAddr:    *maddr,
			logJSON:        *logJSON, logLevel: *logLevel, flightOut: *flight,
		}))
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "usage: rcoal-experiments -run <id>|all  (or -list)")
		os.Exit(2)
	}

	opts := experiments.DefaultOptions()
	opts.Samples = *samples
	opts.Lines = *lines
	opts.Seed = *seed
	opts.Key = []byte(*key)
	opts.Workers = *workers
	opts.CellTimeout = *cellTO
	opts.Retries = *retries
	opts.Mechanisms = mechSpecs
	if *cdir != "" {
		// One store for the whole invocation, opened before any
		// compute: experiments share the cells they have in common.
		c, err := experiments.OpenCache(*cdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: -cache: %v\n", err)
			os.Exit(2)
		}
		defer c.Close()
		opts.Cache = c
	}
	if *accel {
		// One cache for the whole invocation: experiments share the key
		// and plaintext streams, so cross-experiment hits are real.
		opts.TraceCache = kernels.NewTraceCache()
	}

	var exporter *tracevis.Exporter
	if *traceOut != "" {
		exporter = tracevis.New()
		opts.Trace = exporter
	}
	// Local-mode observability: an optional flight recorder dumped on
	// watchdog trips and cell panics, a structured logger teeing into
	// it, and structured heartbeats when both -log-json and -heartbeat
	// are set.
	var recorder *obs.FlightRecorder
	if *flight != "" {
		recorder = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	}
	var logger *obs.Logger
	if *logJSON || recorder != nil {
		logDst := io.Writer(os.Stderr)
		if !*logJSON {
			logDst = io.Discard
		}
		logger = obs.NewLogger(logDst, obs.LogConfig{
			JSON: true, Level: obs.ParseLevel(*logLevel), Recorder: recorder,
		}).With("role", "local")
	}
	if *hb > 0 || *maddr != "" {
		tel := runner.NewTelemetry()
		opts.Telemetry = tel
		if *hb > 0 {
			if *logJSON {
				stop := tel.HeartbeatWith(*hb, func(s runner.TelemetryStats) {
					logger.Info("telemetry",
						"cells_done", s.CellsDone, "cells_total", s.TotalCells,
						"cells_failed", s.CellsFailed, "cache_hits", s.CacheHits,
						"cells_per_sec", s.CellsPerSec, "eta_sec", s.ETA.Seconds(),
						"utilization", s.Utilization)
				})
				defer stop()
			} else {
				stop := tel.Heartbeat(os.Stderr, *hb)
				defer stop()
			}
		}
		if *maddr != "" {
			expvar.Publish("rcoal_telemetry", expvar.Func(func() any { return tel.Stats() }))
			http.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
				p := obs.NewProm()
				p.Telemetry("rcoal", tel.Stats())
				rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				p.WriteTo(rw)
			})
			go func() {
				if err := http.ListenAndServe(*maddr, nil); err != nil {
					fmt.Fprintf(os.Stderr, "rcoal-experiments: metrics endpoint: %v\n", err)
				}
			}()
		}
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}

	type outcome struct {
		report  string
		elapsed float64
		err     error
	}
	results := make([]outcome, len(ids))
	sem := make(chan struct{}, max(1, *par))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			o := opts
			if *prog {
				o.Progress = func(done, total int) {
					fmt.Fprintf(os.Stderr, "%s: %d/%d cells\n", id, done, total)
					logger.Debug("progress", "experiment", id, "done", done, "total", total)
				}
			}
			if *jdir != "" {
				j, jerr := experiments.OpenJournal(filepath.Join(*jdir, id+".journal"), id, o, *resume)
				if jerr != nil {
					results[i] = outcome{err: jerr}
					return
				}
				defer j.Close()
				if *resume && j.Len() > 0 {
					fmt.Fprintf(os.Stderr, "%s: resuming with %d journaled cells (%d discarded)\n",
						id, j.Len(), j.Discarded)
				}
				o.Journal = j
			}
			res, err := experiments.Run(id, o)
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			out := res.Render()
			if *csvDir != "" {
				if c, ok := res.(experiments.CSVer); ok {
					path := filepath.Join(*csvDir, id+".csv")
					if werr := atomicio.WriteFile(path, []byte(c.CSV()), 0o644); werr != nil {
						results[i] = outcome{err: werr}
						return
					}
					out += fmt.Sprintf("(data written to %s)\n", path)
				}
			}
			results[i] = outcome{report: out, elapsed: time.Since(start).Seconds()}
		}(i, id)
	}
	wg.Wait()
	if exporter != nil {
		if err := exporter.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (load at ui.perfetto.dev)\n",
			exporter.Len(), *traceOut)
	}
	for i, id := range ids {
		if results[i].err != nil {
			err := results[i].err
			fmt.Fprintf(os.Stderr, "rcoal-experiments: %s: %v\n", id, err)
			logger.Error("experiment failed", "experiment", id, "error", err.Error())
			if recorder != nil {
				// Classify the failure so the flight dump says why it was
				// taken; the dump path is referenced next to the error so
				// the diagnostic snapshot and the event ring travel
				// together.
				reason := "experiment failure"
				var pe *runner.PanicError
				switch {
				case errors.Is(err, gpusim.ErrNoProgress):
					reason = "watchdog: no forward progress"
				case errors.Is(err, gpusim.ErrMaxCycles):
					reason = "watchdog: cycle budget exhausted"
				case errors.As(err, &pe):
					reason = "cell panic"
				}
				if derr := recorder.Dump(*flight, reason, ""); derr != nil {
					fmt.Fprintf(os.Stderr, "rcoal-experiments: flight dump: %v\n", derr)
				} else {
					fmt.Fprintf(os.Stderr, "rcoal-experiments: flight recorder dumped to %s (%s)\n", *flight, reason)
				}
			}
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, results[i].elapsed, results[i].report)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// workerConfig bundles the worker-mode flags.
type workerConfig struct {
	coordinator    string
	id             string
	concurrency    int
	verbose        bool
	chaosSeed      uint64
	degradedPath   string
	degradedAfter  time.Duration
	requestTimeout time.Duration
	metricsAddr    string
	logJSON        bool
	logLevel       string
	flightOut      string
}

// runWorker attaches this process to a coordinator as a cell-compute
// worker until the coordinator drains, the first SIGTERM/SIGINT drains
// this worker (finish and report the in-flight cell, then exit clean),
// or a second signal kills it hard.
func runWorker(cfg workerConfig) int {
	id := cfg.id
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	concurrency := cfg.concurrency
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	var recorder *obs.FlightRecorder
	if cfg.flightOut != "" {
		recorder = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	}
	var logger *obs.Logger
	if cfg.logJSON || recorder != nil {
		logDst := io.Writer(os.Stderr)
		if !cfg.logJSON {
			logDst = io.Discard
		}
		logger = obs.NewLogger(logDst, obs.LogConfig{
			JSON: true, Level: obs.ParseLevel(cfg.logLevel), Recorder: recorder,
		}).With("role", "worker", "worker", id)
	}
	w := &dist.Worker{
		Coordinator:    cfg.coordinator,
		ID:             id,
		Concurrency:    concurrency,
		RequestTimeout: cfg.requestTimeout,
		DegradedPath:   cfg.degradedPath,
		DegradedAfter:  cfg.degradedAfter,
		Logger:         logger,
	}
	if cfg.verbose {
		w.Log = os.Stderr
	}
	var injector *chaos.Injector
	if cfg.chaosSeed != 0 {
		plan := chaos.NewPlan(cfg.chaosSeed, chaos.DefaultProfile())
		in := chaos.NewInjector(plan)
		injector = in
		if cfg.verbose {
			in.Log = os.Stderr
		}
		// Every injected fault becomes a trace mark on this worker's next
		// completion and a structured warning, so faults are visible in
		// the merged fleet trace and the event log, not just the counters.
		in.OnFault = func(endpoint string, n uint64, f chaos.Fault, partitioned bool) {
			w.ObserveFault(endpoint, n, f.Kind.String(), partitioned)
			logger.Warn("chaos fault injected",
				"endpoint", endpoint, "n", n, "kind", f.Kind.String(), "partitioned", partitioned)
		}
		w.Client = &http.Client{Transport: chaos.NewTransport(in, nil)}
		fmt.Fprintf(os.Stderr, "rcoal-experiments: %s\n", plan.Describe())
		defer func() { fmt.Fprintf(os.Stderr, "rcoal-experiments: %s\n", in.Summary()) }()
	}
	if cfg.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			st := w.Stats()
			p := obs.NewProm()
			p.Gauge("rcoal_worker_cells_completed", "Cells this worker delivered (accepted or not).", float64(st.Completed))
			p.Counter("rcoal_worker_completions_accepted_total", "Completions the coordinator accepted.", float64(st.Accepted))
			p.Counter("rcoal_worker_completions_rejected_total", "Duplicate/stale completions (benign).", float64(st.Rejected))
			p.Counter("rcoal_worker_completions_parked_total", "Completions checkpointed in degraded mode.", float64(st.Parked))
			p.Counter("rcoal_worker_renewals_lost_total", "Leases the coordinator declined to renew.", float64(st.RenewalsLost))
			p.Counter("rcoal_worker_chaos_faults_total", "Chaos faults observed by this worker.", float64(st.FaultsSeen))
			if injector != nil {
				p.GaugeSeries("rcoal_worker_chaos_injected", "Injected faults by kind.", func(sample func(v float64, labels ...obs.Label)) {
					counts := injector.Counters()
					kinds := make([]string, 0, len(counts))
					for k := range counts {
						kinds = append(kinds, k)
					}
					sort.Strings(kinds)
					for _, k := range kinds {
						sample(float64(counts[k]), obs.Label{Name: "kind", Value: k})
					}
				})
			}
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			p.WriteTo(rw)
		})
		go func() {
			if err := http.ListenAndServe(cfg.metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "rcoal-experiments: worker metrics endpoint: %v\n", err)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "rcoal-experiments: worker %s draining (finishing in-flight cells; signal again to kill)\n", id)
		w.Drain()
		<-sig
		fmt.Fprintf(os.Stderr, "rcoal-experiments: worker %s killed\n", id)
		cancel()
	}()

	fmt.Fprintf(os.Stderr, "rcoal-experiments: worker %s attaching to %s (%d concurrent cells)\n",
		id, cfg.coordinator, concurrency)
	logger.Info("worker attaching", "coordinator", cfg.coordinator, "concurrency", concurrency)
	dumpFlight := func(reason string) {
		if recorder == nil {
			return
		}
		if err := recorder.Dump(cfg.flightOut, reason, ""); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: flight dump: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: flight recorder dumped to %s (%s)\n", cfg.flightOut, reason)
		}
	}
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: worker: %v\n", err)
		logger.Error("worker failed", "error", err.Error())
		dumpFlight("worker failure")
		return 1
	}
	if n := w.Parked(); n > 0 {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: worker %s degraded: %d completion(s) parked in %s; rerun with the same -degraded-journal once the coordinator is back\n",
			id, n, cfg.degradedPath)
		dumpFlight("degraded mode")
		return 0
	}
	fmt.Fprintf(os.Stderr, "rcoal-experiments: worker %s done (%d cells computed)\n", id, w.Completed())
	logger.Info("worker done", "cells", w.Completed())
	return 0
}
