// Command rcoal-coordinator runs an experiment sweep as the
// coordinator of a distributed fleet: it enumerates the selected
// experiments' grids, leases cells to workers over HTTP (see
// rcoal-experiments -worker), journals every lease and completion in a
// durable checkpoint ledger, and renders the same reports and CSVs a
// single-process run would — byte-identically, at any worker count.
//
// Usage:
//
//	rcoal-coordinator -addr :8077 -run fig7 -journal ckpt
//	rcoal-coordinator -addr :8077 -run all -journal ckpt -resume -cache cachedir
//	rcoal-experiments -worker http://coordinator:8077   # on each machine
//
// The control plane lives on the same address: GET /status for live
// grid progress, per-worker rates, and straggler flags; GET /metrics
// for Prometheus text exposition; POST /leases/cancel to revoke (and
// thereby retry) an in-flight lease; /debug/vars for expvar. With
// -trace-out the coordinator merges its own lease spans with the
// per-cell span reports workers attach to completions into one
// fleet-wide Chrome/Perfetto trace; -log-json emits structured
// lease-lifecycle events; -flight-out dumps a bounded ring of recent
// events when the sweep fails.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rcoal/internal/atomicio"
	"rcoal/internal/checkpoint"
	"rcoal/internal/cliutil"
	"rcoal/internal/dist"
	"rcoal/internal/experiments"
	"rcoal/internal/kernels"
	"rcoal/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8077", "address to serve the lease protocol and control plane on")
		run      = flag.String("run", "", "experiment ID to run, or \"all\"")
		samples  = flag.Int("samples", 100, "plaintext timing samples per configuration")
		lines    = flag.Int("lines", 32, "plaintext lines per sample (fig18 always uses 1024)")
		seed     = flag.Uint64("seed", 0x8C0A1, "master random seed")
		key      = flag.String("key", "RCoal eval key 1", "AES key (16/24/32 bytes)")
		csvDir   = flag.String("csv", "", "directory to write <id>.csv data files into (optional)")
		jdir     = flag.String("journal", "", "directory for per-experiment lease ledgers (<id>.journal); required")
		resume   = flag.Bool("resume", false, "resume from existing ledgers: journaled cells restore, journaled leases stay stale-detectable")
		cdir     = flag.String("cache", "", "directory for the content-addressed results store; cells computed by any prior sweep or experiment under identical options are restored instead of leased")
		par      = flag.Int("parallel", 1, "experiments whose grids are open for leasing concurrently")
		accel    = flag.Bool("accel", false, "lease cells with the exact accelerators enabled on workers (results are byte-identical)")
		hybrid   = flag.Bool("hybrid", false, "lease cells with the hybrid analytical substitution (scores may differ within HybridScoreBound)")
		mechs    = flag.String("mechanisms", "", "comma-separated defense specs restricting mechanism-enumerating experiments (ext-defense-frontier), e.g. \"baseline,rss+rts:8,delay:64\"; empty = full registry; the filter travels in each lease")
		leaseTO  = flag.Duration("lease-timeout", 2*time.Minute, "silence budget per lease before the cell is re-issued to another worker; holders renew long computations via /lease/renew")
		hb       = flag.Duration("heartbeat", 0, "period of the live status line on stderr (cells done, cache hit/miss, workers, rate, eta); 0 = off")
		drain    = flag.Duration("drain-wait", 2*time.Second, "grace period after the last grid completes so polling workers see Done and exit")
		traceOut = flag.String("trace-out", "", "write the merged fleet-wide Chrome/Perfetto trace (coordinator lease spans + per-cell worker spans) to this file after the sweep")
		logJSON  = flag.Bool("log-json", false, "emit structured lease-lifecycle events as JSON lines on stderr")
		logLevel = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error (with -log-json)")
		flight   = flag.String("flight-out", "", "dump the in-memory flight recorder (last events at every level) to this file when the sweep fails")
	)
	flag.Parse()

	if *run == "" {
		fmt.Fprintln(os.Stderr, "usage: rcoal-coordinator -addr :8077 -run <id>|all -journal <dir>")
		os.Exit(2)
	}
	if *jdir == "" {
		fmt.Fprintln(os.Stderr, "rcoal-coordinator: -journal is required (the ledger is what makes leases durable)")
		os.Exit(2)
	}
	if err := cliutil.CheckOutputs(*csvDir, *traceOut, *flight); err != nil {
		fmt.Fprintf(os.Stderr, "rcoal-coordinator: %v\n", err)
		os.Exit(2)
	}
	// One results store for the whole sweep, opened before serving:
	// cells one experiment finished are never leased for another.
	var cache *checkpoint.Journal
	if *cdir != "" {
		var err error
		if cache, err = experiments.OpenCache(*cdir); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: -cache: %v\n", err)
			os.Exit(2)
		}
		defer cache.Close()
	}

	opts := experiments.DefaultOptions()
	opts.Samples = *samples
	opts.Lines = *lines
	opts.Seed = *seed
	opts.Key = []byte(*key)
	opts.Hybrid = *hybrid
	if *mechs != "" {
		for _, spec := range strings.Split(*mechs, ",") {
			opts.Mechanisms = append(opts.Mechanisms, strings.TrimSpace(spec))
		}
	}
	if *accel {
		// The coordinator never simulates, but a non-nil trace cache is
		// how Options carries "accelerate" to dist.WireFrom; workers
		// build their own shared cache per process.
		opts.TraceCache = kernels.NewTraceCache()
		opts.ForkPrefix = true
	}

	// Observability plane: one trace id for the whole sweep, minted
	// here and propagated to every worker through the lease protocol.
	// The structured logger tees into the flight recorder so a crash
	// dump always holds the last ~256 events at every level.
	traceID := obs.NewTraceID()
	var fleetTrace *obs.FleetTrace
	if *traceOut != "" {
		fleetTrace = obs.NewFleetTrace(traceID)
	}
	var recorder *obs.FlightRecorder
	if *flight != "" {
		recorder = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	}
	var logger *obs.Logger
	if *logJSON || recorder != nil {
		// Recorder-only mode (flight recorder without -log-json) keeps
		// stderr quiet but still feeds the event ring.
		logDst := io.Writer(os.Stderr)
		if !*logJSON {
			logDst = io.Discard
		}
		logger = obs.NewLogger(logDst, obs.LogConfig{
			JSON: true, Level: obs.ParseLevel(*logLevel), Recorder: recorder,
		}).With("trace_id", traceID, "role", "coordinator")
	}
	// dumpFlight writes the ring atomically; called on failure paths.
	dumpFlight := func(reason string) {
		if recorder == nil {
			return
		}
		if err := recorder.Dump(*flight, reason, traceID); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: flight dump: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: flight recorder dumped to %s (%s)\n", *flight, reason)
		}
	}

	s := dist.NewServer(dist.ServerConfig{
		LeaseTimeout: *leaseTO,
		TraceID:      traceID,
		Trace:        fleetTrace,
		Log:          logger,
	})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	expvar.Publish("rcoal_dist", expvar.Func(func() any { return s.Status() }))
	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// A client that stalls mid-request (or a chaos-injected partial
		// delivery) must not pin a handler goroutine forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: serve: %v\n", err)
			os.Exit(1)
		}
	}()
	fmt.Fprintf(os.Stderr, "rcoal-coordinator: serving on %s (status: http://%s/status)\n", *addr, *addr)
	logger.Info("coordinator serving", "addr", *addr, "run", *run)

	// Graceful shutdown on SIGINT/SIGTERM: close the lease server so
	// the experiment goroutines return (their defers flush and close
	// the journals — every granted lease and accepted completion is
	// already fsynced), then drain in-flight HTTP exchanges. A second
	// signal exits immediately.
	var interrupted atomic.Bool
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "rcoal-coordinator: signal received; flushing journals and shutting down (restart with -resume to continue)")
		logger.Warn("shutdown signal received")
		dumpFlight("shutdown signal")
		s.Close()
		<-sig
		fmt.Fprintln(os.Stderr, "rcoal-coordinator: second signal, exiting immediately")
		os.Exit(1)
	}()

	if *hb > 0 {
		stop := s.Heartbeat(os.Stderr, *hb)
		defer stop()
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
	sem := make(chan struct{}, maxInt(1, *par))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			o := opts
			j, err := experiments.OpenJournal(filepath.Join(*jdir, id+".journal"), id, o, *resume)
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			defer j.Close()
			if *resume && j.Len() > 0 {
				fmt.Fprintf(os.Stderr, "%s: resuming with %d journaled cells (%d discarded)\n",
					id, j.Len(), j.Discarded)
			}
			o.Exec = dist.NewExec(s, id, j, cache)
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

	// Tell polling workers the sweep is over, give them one poll cycle
	// to hear it, then stop serving — gracefully, so responses in
	// flight complete instead of being cut mid-body.
	if !interrupted.Load() {
		s.Drain()
		logger.Info("sweep drained")
		time.Sleep(*drain)
	}

	// Label stragglers while worker stats are still live, then write
	// the merged fleet trace.
	if fleetTrace != nil {
		s.FinalizeTrace()
		if err := fleetTrace.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: writing fleet trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: fleet trace (%d events, trace %s) written to %s\n",
				fleetTrace.Len(), traceID, *traceOut)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	cancel()

	exit := 0
	for i, id := range ids {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-coordinator: %s: %v\n", id, results[i].err)
			logger.Error("experiment failed", "experiment", id, "error", results[i].err.Error())
			exit = 1
			continue
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, results[i].elapsed, results[i].report)
	}
	if exit != 0 {
		dumpFlight("experiment failure")
	}
	if exit == 0 {
		st := s.Status()
		fmt.Fprintf(os.Stderr, "rcoal-coordinator: done; served %d worker(s)\n", len(st.Workers))
	}
	os.Exit(exit)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
