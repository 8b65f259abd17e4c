package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rcoal/internal/dist"
	"rcoal/internal/experiments"
)

// fleet is the fleet-sweep topology in one process: a coordinator per
// seed behind one loopback listener, and two dist.Workers of
// concurrency 1 that stay attached across seeds. A coordinator
// registers each experiment id once, hence one per seed; the listener
// routes to the seed being swept.
type fleet struct {
	servers  []*dist.Server
	handlers []http.Handler
	cur      atomic.Int32
	srv      *http.Server
	served   chan struct{}
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	errs     []error
}

// cellClock accumulates the cells fleet workers computed and the time
// they spent in experiments.ComputeCell.
type cellClock struct {
	n     atomic.Int64
	nanos atomic.Int64
}

func (f *fleet) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	f.handlers[f.cur.Load()].ServeHTTP(rw, req)
}

func (f *fleet) use(seed int) { f.cur.Store(int32(seed)) }

// startFleet starts the coordinators and workers, and returns once
// both workers have polled the first coordinator.
func startFleet(seeds int, p *probes) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{served: make(chan struct{}), errs: make([]error, cores)}
	for k := 0; k < seeds; k++ {
		s := dist.NewServer(dist.ServerConfig{})
		f.servers = append(f.servers, s)
		f.handlers = append(f.handlers, s.Handler())
	}
	f.srv = &http.Server{Handler: f}
	go func() {
		defer close(f.served)
		f.srv.Serve(ln) // returns http.ErrServerClosed once close shuts the listener
	}()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	url := "http://" + ln.Addr().String()
	for i := 0; i < cores; i++ {
		id := fmt.Sprintf("w%d", i)
		w := &dist.Worker{Coordinator: url, ID: id, Concurrency: 1, Compute: p.compute("worker " + id)}
		if p.spans != nil {
			w.Client = &http.Client{Transport: &spanTransport{base: http.DefaultTransport, log: p.spans, proc: "worker " + id}}
		}
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.errs[i] = w.Run(ctx)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(f.servers[0].Status().Workers) < cores {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet workers did not attach within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// compute is the fleet workers' dist.Worker.Compute: the default
// experiments.ComputeCell, timed, with the counting sink installed.
// The worker's own panic recovery still wraps it.
func (p *probes) compute(proc string) func(string, experiments.Options, string) (json.RawMessage, error) {
	return func(id string, o experiments.Options, key string) (json.RawMessage, error) {
		if p.sink != nil {
			o.Trace = p.sink
		}
		start := time.Now()
		raw, err := experiments.ComputeCell(id, o, key)
		end := time.Now()
		p.cells.n.Add(1)
		p.cells.nanos.Add(int64(end.Sub(start)))
		p.spans.add(proc, trackCells, id+" "+key, start, end, nil)
		return raw, err
	}
}

// leasesIssued sums the lease grants of every coordinator.
func (f *fleet) leasesIssued() uint64 {
	var n uint64
	for _, s := range f.servers {
		n += s.Status().Metrics.Counters["dist_leases_issued"]
	}
	return n
}

// close drains the current coordinator so the workers exit, then stops
// the listener. Workers that do not exit within 10s are canceled.
func (f *fleet) close() error {
	f.servers[f.cur.Load()].Drain()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		f.cancel()
		<-done
	}
	f.cancel()
	f.srv.Close()
	<-f.served
	return errors.Join(f.errs...)
}
