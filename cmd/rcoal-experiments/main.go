// Command rcoal-experiments reproduces the RCoal paper's evaluation:
// every figure and table has a registered experiment that prints its
// data as an ASCII table or chart.
//
// One run loop drives every experiment in two modes. By default the
// experiments' cells run on the local worker pool. With -serve the
// process coordinates a distributed fleet instead: it leases the same
// cells to -worker processes over HTTP, journals every lease and
// completion in a durable ledger (-journal, required), and renders the
// same reports and CSVs — byte-identically, at any worker count.
//
// -workers is the one concurrency knob: it bounds the experiments run
// at once and each one's cells at once (serve mode: grids open for
// leasing; worker mode: leased cells), 0 = GOMAXPROCS, 1 = serial.
//
// Usage:
//
//	rcoal-experiments -list
//	rcoal-experiments -run fig6
//	rcoal-experiments -run table2,fig9
//	rcoal-experiments -run all -samples 100 -seed 7
//	rcoal-experiments -run all -journal ckpt          # checkpoint finished cells
//	rcoal-experiments -run all -journal ckpt -resume  # skip journaled cells
//	rcoal-experiments -run all -cache cachedir        # reuse cells from any prior identical sweep
//	rcoal-experiments -serve :8077 -run all -journal ckpt  # lease cells to a fleet
//	rcoal-experiments -worker http://host:8077        # compute cells for a -serve coordinator
//	rcoal-experiments -worker http://host:8077 -cache wcache  # answer re-leased cells it already computed
//
// In serve mode the control plane lives on the lease address: GET
// /status for live grid progress, per-worker rates, and straggler
// flags; GET /metrics for Prometheus text exposition; POST
// /leases/cancel to revoke (and thereby retry) an in-flight lease.
// -trace-out then writes one fleet-wide Chrome/Perfetto trace that
// merges the coordinator's lease spans with the per-cell span reports
// workers attach to completions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"rcoal/internal/atomicio"
	"rcoal/internal/chaos"
	"rcoal/internal/checkpoint"
	"rcoal/internal/dist"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
	"rcoal/internal/gpusim/tracevis"
	"rcoal/internal/mechanism"
	"rcoal/internal/obs"
	"rcoal/internal/runner"
)

var (
	list     = flag.Bool("list", false, "list available experiment IDs")
	runID    = flag.String("run", "", "experiment ID to run, a comma-separated list of them, or \"all\"")
	samples  = flag.Int("samples", 100, "plaintext timing samples per configuration")
	lines    = flag.Int("lines", 32, "plaintext lines per sample (fig18 always uses 1024)")
	seed     = flag.Uint64("seed", 0x8C0A1, "master random seed")
	key      = flag.String("key", "RCoal eval key 1", "AES key (16/24/32 bytes)")
	csvDir   = flag.String("csv", "", "directory to write <id>.csv data files into (optional)")
	workers  = flag.Int("workers", 0, "experiments run at once, and cells evaluated at once inside each; in serve mode, grids open for leasing; 0 = GOMAXPROCS, 1 = serial (results are identical at any setting)")
	prog     = flag.Bool("progress", false, "report per-experiment cell progress on stderr; in worker mode, the lease lifecycle as key=value text events (unless -log-json)")
	jdir     = flag.String("journal", "", "directory for per-experiment checkpoint journals (<id>.journal); completed cells survive crashes; in serve mode also the lease ledger, and required")
	resume   = flag.Bool("resume", false, "resume from existing journals, skipping journaled cells (requires -journal)")
	traceOut = flag.String("trace-out", "", "write a Chrome/Perfetto trace of every simulated launch to this file (large; best with a single small experiment); in serve mode, the merged fleet trace of coordinator lease spans and per-cell worker spans")
	hb       = flag.Duration("heartbeat", 0, "period of the live telemetry line on stderr (cells done, rate, eta, worker utilization; in serve mode also cache hit/miss and workers); 0 = off")
	maddr    = flag.String("metrics-addr", "", "serve live run telemetry as Prometheus text at http://<addr>/metrics (local and worker modes; -serve exposes /metrics on its own address)")
	cdir     = flag.String("cache", "", "directory for the content-addressed results store: cells computed by any prior run of any experiment under identical result-determining options are restored instead of re-run; in worker mode, the worker's own store, which answers a re-leased cell it already computed")
	mechs    = flag.String("mechanisms", "", "comma-separated defense specs restricting mechanism-enumerating experiments (ext-defense-frontier), e.g. \"baseline,rss+rts:8,delay:64\"; empty = full registry")
	serve    = flag.String("serve", "", "coordinate a distributed sweep: serve the lease protocol and control plane (/status, /metrics) at this address and lease every grid cell to -worker processes instead of computing it here; requires -journal")
	leaseTO  = flag.Duration("lease-timeout", 2*time.Minute, "serve mode: silence budget per lease before the cell is re-issued to another worker; holders renew long computations via /lease/renew")
	drain    = flag.Duration("drain-wait", 2*time.Second, "serve mode: grace period after the last grid completes so polling workers see Done and exit")
	worker   = flag.String("worker", "", "run as a distributed worker for the -serve coordinator at this base URL (e.g. http://host:8077) instead of running experiments locally; -workers bounds concurrent cells")
	workerID = flag.String("worker-id", "", "worker name in the coordinator's ledger and status page; default host:pid")
	chaosSee = flag.Uint64("chaos-seed", 0, "worker mode: inject deterministic network faults on every coordinator request from this seed's schedule (internal/chaos; testing only); 0 = off")
	reqTO    = flag.Duration("request-timeout", 30*time.Second, "worker mode: per-request HTTP timeout toward the coordinator")
	logJSON  = flag.Bool("log-json", false, "emit structured lifecycle events as JSON lines on stderr (heartbeats; lease lifecycle in serve and worker modes)")
	logLevel = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error (with -log-json)")
	flight   = flag.String("flight-out", "", "dump the in-memory flight recorder (last events at every level) to this file on experiment failure (watchdog trips, cell panics), worker failure, or a serve-mode shutdown signal")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run implements every mode and returns the exit code.
func run() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: "+format+"\n", args...)
		return 2
	}
	if *serve != "" && *worker != "" {
		return fail("-serve and -worker are exclusive: a process coordinates a fleet or computes for one")
	}
	if err := checkModeFlags(); err != nil {
		return fail("%v", err)
	}
	if *resume && *jdir == "" {
		return fail("-resume requires -journal")
	}
	if err := checkOutputs(*csvDir, *traceOut, *flight); err != nil {
		return fail("%v", err)
	}
	mechSpecs, err := parseMechanisms(*mechs)
	if err != nil {
		return fail("%v", err)
	}

	if *worker != "" {
		return runWorker()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	if *runID == "" {
		fmt.Fprintln(os.Stderr, "usage: rcoal-experiments -run <id>[,<id>...]|all [-serve <addr> -journal <dir>]  (or -list, or -worker <url>)")
		return 2
	}
	ids := strings.Split(*runID, ",")
	if *runID == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if !slices.Contains(experiments.IDs(), id) {
			return fail("-run %s: unknown experiment (see -list)", id)
		}
	}
	if *serve != "" {
		if *jdir == "" {
			return fail("-serve requires -journal (the ledger is what makes leases durable)")
		}
		if *maddr != "" {
			return fail("-metrics-addr is for local and worker runs; -serve exposes /metrics on its own address")
		}
	}

	opts := experiments.DefaultOptions()
	opts.Samples = *samples
	opts.Lines = *lines
	opts.Seed = *seed
	opts.Key = []byte(*key)
	opts.Workers = *workers
	opts.Mechanisms = mechSpecs
	if err := opts.Validate(); err != nil {
		return fail("-%s", strings.TrimPrefix(err.Error(), "experiments: "))
	}
	// One results store for the whole invocation, opened before any
	// compute: the memory store of DefaultOptions, or with -cache a
	// file. Experiments share the cells they have in common, and a
	// coordinator never leases a cell the store already holds.
	if *cdir != "" {
		cache, err := experiments.OpenCache(*cdir)
		if err != nil {
			return fail("-cache: %v", err)
		}
		defer cache.Close()
		opts.Cache = cache
	}
	// Every selected experiment's journal opens before the first one
	// computes or the server listens, so a bad -journal directory or a
	// -resume journal from another configuration fails here, not after
	// the experiments ahead of it have run.
	journals := make([]*checkpoint.Journal, len(ids))
	if *jdir != "" {
		for i, id := range ids {
			path := filepath.Join(*jdir, id+".journal")
			j, err := experiments.OpenJournal(path, id, opts, *resume)
			if err != nil {
				return fail("-journal %s: %v", path, err)
			}
			defer j.Close()
			if *resume && j.Len() > 0 {
				fmt.Fprintf(os.Stderr, "%s: resuming with %d journaled cells (%d discarded)\n",
					id, j.Len(), j.Discarded)
			}
			journals[i] = j
		}
	}

	// Observability: a structured logger teeing into the optional
	// flight recorder, dumped once if an experiment fails. Serve mode
	// mints the sweep's trace id, which travels to every worker through
	// the lease protocol.
	logAttrs, traceID := []any{"role", "local"}, ""
	if *serve != "" {
		traceID = obs.NewTraceID()
		logAttrs = []any{"trace_id", traceID, "role", "coordinator"}
	}
	logger, dumpFlight := newEventLog(*logJSON, false, *logLevel, *flight, traceID, logAttrs...)

	var coord *coordinator
	var exporter *tracevis.Exporter
	if *serve != "" {
		coord, err = startCoordinator(*serve, *leaseTO, *drain, *traceOut, traceID, logger, dumpFlight)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: -serve: %v\n", err)
			return 1
		}
		logger.Info("coordinator serving", "addr", *serve, "run", *runID)
		if *hb > 0 {
			defer coord.s.Heartbeat(os.Stderr, *hb)()
		}
	} else {
		if *traceOut != "" {
			exporter = tracevis.New()
			opts.Trace = exporter
		}
		if *hb > 0 || *maddr != "" {
			tel := runner.NewTelemetry()
			opts.Telemetry = tel
			if *hb > 0 && *logJSON {
				defer tel.HeartbeatWith(*hb, func(s runner.TelemetryStats) {
					logger.Info("telemetry",
						"cells_done", s.CellsDone, "cells_total", s.TotalCells,
						"cells_failed", s.CellsFailed, "cache_hits", s.CacheHits,
						"cells_per_sec", s.CellsPerSec, "eta_sec", s.ETA.Seconds(),
						"utilization", s.Utilization)
				})()
			} else if *hb > 0 {
				defer tel.Heartbeat(os.Stderr, *hb)()
			}
			if *maddr != "" {
				mux := http.NewServeMux()
				mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
					p := obs.NewProm()
					p.Telemetry("rcoal", tel.Stats())
					rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
					p.WriteTo(rw)
				})
				go func() {
					if err := http.ListenAndServe(*maddr, mux); err != nil {
						fmt.Fprintf(os.Stderr, "rcoal-experiments: metrics endpoint: %v\n", err)
					}
				}()
			}
		}
	}

	type outcome struct {
		report  string
		elapsed float64
		err     error
	}
	// Each outcome, a panic included, is recorded rather than returned,
	// so a failure never cancels the experiments beside it and every
	// failure is reported below. MapN's error is dropped: no experiment
	// returns one and its context is never canceled.
	results := make([]outcome, len(ids))
	_ = (runner.Pool{Workers: *workers}).MapN(context.Background(), len(ids), func(_ context.Context, i int) error {
		id := ids[i]
		defer func() {
			if v := recover(); v != nil {
				results[i] = outcome{err: fmt.Errorf("panic: %v\n%s", v, debug.Stack())}
			}
		}()
		start := time.Now()
		o := opts
		o.Journal = journals[i]
		if coord != nil {
			o.Exec = dist.NewExec(coord.s, id, o.Journal, o.Cache)
		}
		if *prog {
			o.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "%s: %d/%d cells\n", id, done, total)
				logger.Debug("progress", "experiment", id, "done", done, "total", total)
			}
		}
		res, err := experiments.Run(id, o)
		if err != nil {
			results[i] = outcome{err: err}
			return nil
		}
		out := res.Render()
		if *csvDir != "" {
			if c, ok := res.(experiments.CSVer); ok {
				path := filepath.Join(*csvDir, id+".csv")
				if err := atomicio.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
					results[i] = outcome{err: err}
					return nil
				}
				out += fmt.Sprintf("(data written to %s)\n", path)
			}
		}
		results[i] = outcome{report: out, elapsed: time.Since(start).Seconds()}
		return nil
	})

	if coord != nil {
		coord.finish()
	} else if exporter != nil {
		if err := exporter.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (load at ui.perfetto.dev)\n",
			exporter.Len(), *traceOut)
	}
	// Report every failure; the flight dump says why the first one
	// failed, and its path is printed next to the errors so the event
	// ring and the diagnosis travel together.
	reason := ""
	for i, id := range ids {
		if err := results[i].err; err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: %s: %v\n", id, err)
			logger.Error("experiment failed", "experiment", id, "error", err.Error())
			if reason == "" {
				reason = failureReason(err)
			}
			continue
		}
		// Wall time goes to stderr, so stdout is the same on every run.
		fmt.Fprintf(os.Stderr, "%s: %.1fs\n", id, results[i].elapsed)
		fmt.Printf("=== %s ===\n%s\n", id, results[i].report)
	}
	if reason != "" {
		dumpFlight(reason)
		return 1
	}
	if coord != nil {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: done; served %d worker(s)\n", len(coord.s.Status().Workers))
	}
	return 0
}

// checkModeFlags rejects a flag set explicitly in a mode that ignores
// it. flag.Visit sees only the flags given on the command line, so
// defaults never trip the check.
func checkModeFlags() error {
	serving, working := *serve != "", *worker != ""
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		switch f.Name {
		case "lease-timeout", "drain-wait":
			if !serving {
				err = fmt.Errorf("-%s is only for -serve", f.Name)
			}
		case "worker-id", "chaos-seed", "request-timeout":
			if !working {
				err = fmt.Errorf("-%s is only for -worker", f.Name)
			}
		case "list", "run", "csv", "journal", "resume", "trace-out",
			"samples", "lines", "seed", "key", "heartbeat", "mechanisms":
			// A lease carries the run options (samples through
			// mechanisms); the rest select, write or pace local and
			// serve runs.
			if working {
				err = fmt.Errorf("-%s does not apply to -worker", f.Name)
			}
		}
	})
	return err
}

// checkOutputs validates output paths before any compute, since they
// are first written only after every experiment has finished: -csv
// must name an existing directory this process can create files in
// (probed by creating and removing one), and the parent directories of
// -trace-out and -flight-out must exist. Empty paths are unused.
func checkOutputs(csvDir, traceOut, flightOut string) error {
	if csvDir != "" {
		fi, err := os.Stat(csvDir)
		if err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("-csv %s: not a directory", csvDir)
		}
		probe, err := os.CreateTemp(csvDir, ".rcoal-probe-*")
		if err != nil {
			return fmt.Errorf("-csv %s: not writable: %w", csvDir, err)
		}
		probe.Close()
		if err := os.Remove(probe.Name()); err != nil {
			return fmt.Errorf("-csv %s: %w", csvDir, err)
		}
	}
	for _, out := range []struct{ flag, path string }{{"-trace-out", traceOut}, {"-flight-out", flightOut}} {
		if out.path == "" {
			continue
		}
		dir := filepath.Dir(out.path)
		fi, err := os.Stat(dir)
		if err != nil {
			return fmt.Errorf("%s %s: parent directory: %w", out.flag, out.path, err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("%s %s: parent %s is not a directory", out.flag, out.path, dir)
		}
	}
	return nil
}

// parseMechanisms splits a comma-separated -mechanisms value into
// defense specs, validating each with mechanism.Parse so a bad spec
// fails before any compute rather than inside the one experiment that
// reads the filter. Each spec comes back in its canonical spelling
// (Spec): the specs are part of the result fingerprint, so
// "RSS+RTS:8" and "rssrts:8" must address the same cells. An empty
// value means no filter.
func parseMechanisms(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	var specs []string
	for _, spec := range strings.Split(list, ",") {
		m, err := mechanism.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("-mechanisms: %w", err)
		}
		specs = append(specs, m.Spec())
	}
	return specs, nil
}

// failureReason classifies an experiment error for the flight dump.
func failureReason(err error) string {
	var pe *runner.PanicError
	switch {
	case errors.Is(err, gpusim.ErrNoProgress):
		return "watchdog: no forward progress"
	case errors.Is(err, gpusim.ErrMaxCycles):
		return "watchdog: cycle budget exhausted"
	case errors.As(err, &pe):
		return "cell panic"
	}
	return "experiment failure"
}

// newEventLog builds the structured logger every mode shares: JSON
// lines on stderr with -log-json, else key=value text lines with
// logText, teed into a flight recorder when flightOut is set
// (recorder-only mode keeps stderr quiet but still feeds the event
// ring). The logger is nil, a valid no-op, when all three are off.
// dump writes the ring to flightOut, tagged with the reason and
// traceID; it is a no-op without a recorder.
func newEventLog(logJSON, logText bool, level, flightOut, traceID string, attrs ...any) (logger *obs.Logger, dump func(reason string)) {
	var recorder *obs.FlightRecorder
	if flightOut != "" {
		recorder = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	}
	if logJSON || logText || recorder != nil {
		dst := io.Writer(os.Stderr)
		if !logJSON && !logText {
			dst = io.Discard
		}
		logger = obs.NewLogger(dst, obs.LogConfig{
			JSON: logJSON, Level: obs.ParseLevel(level), Recorder: recorder,
		}).With(attrs...)
	}
	return logger, func(reason string) {
		if recorder == nil {
			return
		}
		if err := recorder.Dump(flightOut, reason, traceID); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: flight dump: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: flight recorder dumped to %s (%s)\n", flightOut, reason)
		}
	}
}

// runWorker attaches this process to a coordinator as a cell-compute
// worker until the coordinator drains, the first SIGTERM/SIGINT drains
// this worker (finish and report the in-flight cell, then exit clean),
// or a second signal kills it hard.
func runWorker() int {
	id := *workerID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	concurrency := runner.Workers(*workers)
	logger, dumpFlight := newEventLog(*logJSON, *prog, *logLevel, *flight, "", "role", "worker", "worker", id)
	w := &dist.Worker{
		Coordinator:    *worker,
		ID:             id,
		Concurrency:    concurrency,
		RequestTimeout: *reqTO,
		Logger:         logger,
	}
	// The worker's results store opens before its first poll: each
	// computed cell is recorded by ID, so a lease re-issued after a
	// lost completion is answered without computing.
	if *cdir != "" {
		store, err := experiments.OpenCache(*cdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: -cache: %v\n", err)
			return 2
		}
		defer store.Close()
		w.Store = store
	}
	var injector *chaos.Injector
	if *chaosSee != 0 {
		plan := chaos.NewPlan(*chaosSee, chaos.DefaultProfile())
		in := chaos.NewInjector(plan)
		injector = in
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
	if *maddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			st := w.Stats()
			p := obs.NewProm()
			p.Gauge("rcoal_worker_cells_completed", "Cells this worker delivered (accepted or not).", float64(st.Completed))
			p.Counter("rcoal_worker_completions_accepted_total", "Completions the coordinator accepted.", float64(st.Accepted))
			p.Counter("rcoal_worker_completions_rejected_total", "Duplicate/stale completions (benign).", float64(st.Rejected))
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
			if err := http.ListenAndServe(*maddr, mux); err != nil {
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
		id, *worker, concurrency)
	logger.Info("worker attaching", "coordinator", *worker, "concurrency", concurrency)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rcoal-experiments: worker: %v\n", err)
		logger.Error("worker failed", "error", err.Error())
		dumpFlight("worker failure")
		return 1
	}
	fmt.Fprintf(os.Stderr, "rcoal-experiments: worker %s done (%d cells delivered)\n", id, w.Completed())
	logger.Info("worker done", "cells", w.Completed())
	return 0
}
