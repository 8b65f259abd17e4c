package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestMapPreservesInputOrder makes completion order deliberately
// adversarial (early cells finish last) and asserts results still land
// by cell index.
func TestMapPreservesInputOrder(t *testing.T) {
	const n = 16
	out := make([]string, n)
	err := Pool{Workers: 8}.MapN(context.Background(), n, func(_ context.Context, i int) error {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		out[i] = fmt.Sprintf("cell-%d", i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if want := fmt.Sprintf("cell-%d", i); s != want {
			t.Errorf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	for _, n := range []int{0, -1} {
		err := Pool{Workers: 4}.MapN(context.Background(), n, func(context.Context, int) error {
			t.Error("fn called on empty input")
			return nil
		})
		if err != nil {
			t.Errorf("MapN(%d) = %v", n, err)
		}
	}
}

// TestSingleWorkerIsSerial proves Workers=1 executes cells strictly in
// index order with no interleaving — the determinism baseline.
func TestSingleWorkerIsSerial(t *testing.T) {
	var order []int
	err := Pool{Workers: 1}.MapN(context.Background(), 20, func(_ context.Context, i int) error {
		order = append(order, i) // no lock: single worker must serialize
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 20 {
		t.Fatalf("ran %d cells", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v not sequential", order)
		}
	}
}

// TestFirstErrorPropagation: the error of the lowest-indexed failing
// cell wins, later cells are canceled, and with one worker no cell
// after the failure runs at all.
func TestFirstErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Pool{Workers: 1}.MapN(context.Background(), 100, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return fmt.Errorf("cell %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if err.Error() != "cell 3: boom" {
		t.Errorf("err = %q, want the index-3 error", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("%d cells ran after failure at index 3 (single worker)", got)
	}

	// Parallel: two failures; the lower index must be reported even
	// when the higher-indexed error lands first.
	started2 := make(chan struct{})
	err = Pool{Workers: 8}.MapN(context.Background(), 8, func(_ context.Context, i int) error {
		switch i {
		case 2:
			close(started2)
			time.Sleep(10 * time.Millisecond)
			return fmt.Errorf("cell %d: %w", i, boom)
		case 6:
			<-started2
			return fmt.Errorf("cell %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2: boom" {
		t.Errorf("parallel err = %v, want the index-2 error", err)
	}
}

// TestCancellationMidSweep cancels a long sweep and asserts the pool
// returns context.Canceled promptly without leaking goroutines. Cells
// that report the cancellation are not failures of their own.
func TestCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- Pool{Workers: 4}.MapN(ctx, 10_000, func(ctx context.Context, i int) error {
			ran.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			select { // simulate a long cell that honors cancellation
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return nil
			}
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not return after cancellation")
	}
	if got := ran.Load(); got >= 10_000 {
		t.Errorf("cancellation did not stop the sweep (%d cells ran)", got)
	}

	// All workers must be gone; allow the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestPanicRecoveredAsError: a panicking cell must surface as a
// *PanicError carrying its index and stack, cancel in-flight siblings,
// and leak no goroutines — not crash the process.
func TestPanicRecoveredAsError(t *testing.T) {
	before := runtime.NumGoroutine()

	siblingCanceled := make(chan bool, 1)
	err := Pool{Workers: 2}.MapN(context.Background(), 8, func(ctx context.Context, i int) error {
		switch i {
		case 0: // long-running sibling: must be canceled, not abandoned
			select {
			case <-ctx.Done():
				siblingCanceled <- true
			case <-time.After(5 * time.Second):
				siblingCanceled <- false
			}
			return ctx.Err()
		case 1:
			time.Sleep(5 * time.Millisecond) // let the sibling start
			panic("cell 1 exploded")
		}
		return nil
	})

	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell != 1 || pe.Value != "cell 1 exploded" {
		t.Errorf("PanicError = cell %d value %v", pe.Cell, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runner_test.go") {
		t.Errorf("panic stack does not point at the cell:\n%s", pe.Stack)
	}
	if !<-siblingCanceled {
		t.Error("in-flight sibling was not canceled")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked after panic: %d before, %d after", before, after)
	}
}

// TestLowestPanickingIndexWins mirrors the ordinary-error contract:
// with two panics in flight, the lower cell index is reported even
// when the higher one lands first.
func TestLowestPanickingIndexWins(t *testing.T) {
	started2 := make(chan struct{})
	err := Pool{Workers: 8}.MapN(context.Background(), 8, func(_ context.Context, i int) error {
		switch i {
		case 2:
			close(started2)
			time.Sleep(10 * time.Millisecond)
			panic("low")
		case 6:
			<-started2
			panic("high")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell != 2 || pe.Value != "low" {
		t.Errorf("reported cell %d (%v), want cell 2", pe.Cell, pe.Value)
	}
}

// TestPanicAndErrorRace: a panic is an error like any other — when an
// ordinary error holds the lower index, it wins over the panic.
func TestPanicAndErrorRace(t *testing.T) {
	boom := errors.New("boom")
	started1 := make(chan struct{})
	err := Pool{Workers: 4}.MapN(context.Background(), 4, func(_ context.Context, i int) error {
		switch i {
		case 1:
			close(started1)
			time.Sleep(10 * time.Millisecond)
			return boom
		case 3:
			<-started1
			panic("later cell")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lower-indexed plain error", err)
	}
}
