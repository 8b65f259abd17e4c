// Package runner is the work-scheduling layer shared by the
// experiment drivers: it fans independent evaluation cells (one
// (mechanism, num-subwarp) point, one scatter panel, one workload
// pattern...) out over a bounded worker pool while preserving the
// deterministic, serial-equivalent semantics the reproduction depends
// on.
//
// The contract every helper here upholds:
//
//   - results land in input order, regardless of completion order;
//   - the worker count changes wall-clock time only, never output
//     bytes — each cell must derive all of its randomness from explicit
//     seeds (the experiments seed from Options.Seed) and own all of its
//     mutable state (its gpusim server, its attack.Attacker);
//   - the first error (lowest cell index among failures) cancels the
//     remaining cells and is returned;
//   - a panicking cell is recovered into a *PanicError and propagated
//     exactly like an ordinary failure — no crashed process, no leaked
//     goroutines;
//   - cancellation of the caller's context stops the pool promptly and
//     surfaces ctx.Err() without leaking goroutines.
package runner

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: n > 0 is honored as given;
// anything else (the zero value) means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded fan-out executor. The zero value is ready to use
// and runs GOMAXPROCS cells at a time.
type Pool struct {
	// Workers bounds concurrent cells; <= 0 means GOMAXPROCS. 1 gives
	// fully serial execution (useful for determinism baselines).
	Workers int
	// Telemetry, when non-nil, receives live per-cell runtime stats
	// (timings, failures, worker occupancy). One Telemetry may be
	// shared across pools; see its docs.
	Telemetry *Telemetry
}

// MapN runs fn(ctx, i) for every i in [0, n) on at most p.Workers
// goroutines. It blocks until every started cell has returned; no
// goroutine outlives the call. If a cell fails, the remaining cells
// are canceled and the error of the lowest-indexed failing cell is
// returned. If ctx is canceled first, MapN returns ctx.Err().
func (p Pool) MapN(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p.Telemetry != nil {
		p.Telemetry.addTotal(n)
	}
	workers := Workers(p.Workers)
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				if err := p.runCell(cctx, i, fn); err != nil {
					if errors.Is(err, context.Canceled) && cctx.Err() != nil {
						// Cancellation cascade: the pool is already
						// shutting down (a sibling failed, or the caller
						// canceled). A cell surfacing that cancellation
						// is not a root failure — recording it would let
						// a low-indexed canceled cell mask the culprit.
						return
					}
					mu.Lock()
					if firstIdx == -1 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// runCell executes one cell, recovering a panic into a *PanicError.
func (p Pool) runCell(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	if p.Telemetry != nil {
		start := p.Telemetry.cellStart()
		defer func() { p.Telemetry.cellEnd(start, err) }()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Cell: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}
