package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"rcoal/internal/dist"
	"rcoal/internal/obs"
)

// coordinator is the serve-mode lifecycle around the shared run loop:
// a lease server on its own HTTP listener, a signal handler that aborts
// it, and the drain that lets polling workers exit once the sweep is
// over. The run loop plugs s into each experiment via dist.NewExec.
type coordinator struct {
	s           *dist.Server
	srv         *http.Server
	trace       *obs.FleetTrace
	traceOut    string
	drainWait   time.Duration
	logger      *obs.Logger
	interrupted atomic.Bool
}

// startCoordinator listens on addr and serves the lease protocol and
// control plane until finish. With traceOut set, the server collects
// the fleet-wide trace that finish writes there.
func startCoordinator(addr string, leaseTimeout, drainWait time.Duration, traceOut, traceID string,
	logger *obs.Logger, dumpFlight func(reason string)) (*coordinator, error) {
	c := &coordinator{traceOut: traceOut, drainWait: drainWait, logger: logger}
	if traceOut != "" {
		c.trace = obs.NewFleetTrace(traceID)
	}
	c.s = dist.NewServer(dist.ServerConfig{
		LeaseTimeout: leaseTimeout,
		TraceID:      traceID,
		Trace:        c.trace,
		Log:          logger,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.srv = &http.Server{
		Handler: c.s.Handler(),
		// A client that stalls mid-request (or a chaos-injected partial
		// delivery) must not pin a handler goroutine forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := c.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: serve: %v\n", err)
			os.Exit(1)
		}
	}()
	fmt.Fprintf(os.Stderr, "rcoal-experiments: serving on %s (status: http://%s/status)\n", ln.Addr(), ln.Addr())

	// Graceful shutdown on SIGINT/SIGTERM: close the lease server so
	// the experiments return with an error (every granted lease and
	// accepted completion is already fsynced in the journals), then
	// drain in-flight HTTP exchanges. A second signal exits immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		c.interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "rcoal-experiments: signal received; flushing journals and shutting down (restart with -resume to continue)")
		logger.Warn("shutdown signal received")
		dumpFlight("shutdown signal")
		c.s.Close()
		<-sig
		fmt.Fprintln(os.Stderr, "rcoal-experiments: second signal, exiting immediately")
		os.Exit(1)
	}()
	return c, nil
}

// finish ends serve mode once every experiment has returned: tell
// polling workers the sweep is over and give them drainWait to hear
// it, write the fleet trace, then stop serving — gracefully, so
// responses in flight complete instead of being cut mid-body.
func (c *coordinator) finish() {
	if !c.interrupted.Load() {
		c.s.Drain()
		c.logger.Info("sweep drained")
		time.Sleep(c.drainWait)
	}
	// Label stragglers while worker stats are still live, then write
	// the merged fleet trace.
	if c.trace != nil {
		c.s.FinalizeTrace()
		if err := c.trace.WriteFile(c.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: writing fleet trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rcoal-experiments: fleet trace (%d events, trace %s) written to %s\n",
				c.trace.Len(), c.trace.TraceID(), c.traceOut)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.srv.Shutdown(ctx); err != nil {
		c.srv.Close()
	}
}
