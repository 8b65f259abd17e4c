package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rcoal/internal/checkpoint"
	"rcoal/internal/experiments"
	"rcoal/internal/kernels"
	"rcoal/internal/obs"
	"rcoal/internal/rng"
)

// Worker pulls leases from a coordinator, recomputes each leased cell
// with experiments.ComputeCell, and reports the bytes back. One Worker
// value drives Concurrency goroutines sharing a single trace cache, so
// accelerated leases amortize kernel construction across cells exactly
// as a local accelerated sweep does.
//
// The transport is hardened for hostile networks (see internal/chaos
// for the fault layer that soaks it): every request carries a timeout,
// transient failures — transport errors and 5xx responses alike —
// retry under capped exponential backoff with deterministic jitter,
// completions are redelivered until the coordinator acknowledges them,
// long computations renew their lease, SIGTERM-style draining finishes
// and reports the in-flight cell before exiting. A completion that
// cannot be delivered fails Run after MaxErrors; with a Store its bytes
// are already kept there, so once the coordinator re-issues the expired
// lease, a worker on the same store answers it without computing.
type Worker struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names this worker in the ledger and the status page. It also
	// seeds the deterministic backoff jitter, so two workers sharing a
	// flaky network do not retry in lockstep.
	ID string
	// Concurrency is the number of cells computed at once; 0 means 1.
	Concurrency int
	// Client overrides http.DefaultClient (e.g. to install
	// chaos.Transport).
	Client *http.Client
	// MaxErrors aborts Run after this many consecutive transport
	// failures (coordinator unreachable); 0 means 25. Rejected
	// completions (duplicate/stale) are not errors.
	MaxErrors int
	// BackoffBase is the first pause after a transport failure; the
	// pause doubles per consecutive failure up to BackoffCap, scaled
	// by a jitter factor in [0.5, 1.0) drawn from a stream seeded by
	// the worker ID. 0 means 100ms.
	BackoffBase time.Duration
	// BackoffCap caps the exponential growth; 0 means 5s.
	BackoffCap time.Duration
	// RequestTimeout bounds each HTTP round trip; 0 means 30s,
	// negative means no per-request timeout.
	RequestTimeout time.Duration
	// Store, when non-nil, is this worker's results store
	// (experiments.OpenCache): every leased cell is looked up by its
	// content address before computing, and every computed cell is
	// recorded there. nil computes every lease and remembers nothing.
	Store *checkpoint.Journal
	// Logger, when non-nil, receives the lease lifecycle as structured
	// events (obs.Logger is nil-receiver safe, so call sites are
	// unconditional). Typically pre-tagged with the worker id.
	Logger *obs.Logger
	// Compute overrides cell computation (tests). nil means
	// experiments.ComputeCell with panic recovery. Either way the
	// options carry Store as their Cache.
	Compute func(id string, o experiments.Options, key string) (json.RawMessage, error)

	// traceCache is shared by all goroutines of this worker; built
	// lazily on the first accelerated lease.
	cacheOnce  sync.Once
	traceCache *kernels.TraceCache

	// draining, once set, stops the loops from taking new leases;
	// in-flight cells finish and report first.
	draining atomic.Bool

	// accepted/rejected/renewalsLost/faultsSeen feed the worker-side
	// /metrics endpoint; completed (below) counts deliveries of either
	// outcome.
	accepted     atomic.Int64
	rejected     atomic.Int64
	renewalsLost atomic.Int64
	faultsSeen   atomic.Int64

	mu        sync.Mutex
	drainCh   chan struct{}
	completed int
	// pendingMarks buffers chaos-fault observations (ObserveFault) that
	// arrive while no cell trace is being built — e.g. faults injected
	// on lease polls — so they attach to the next completion's trace
	// instead of vanishing. Bounded; oldest dropped first.
	pendingMarks []obs.Mark
}

// maxPendingMarks bounds the fault-mark buffer between completions.
const maxPendingMarks = 256

// WorkerStats is a point-in-time snapshot of a worker's delivery
// counters, rendered by the worker-side /metrics endpoint.
type WorkerStats struct {
	Completed    int   // deliveries, accepted or not
	Accepted     int64 // completions the coordinator accepted
	Rejected     int64 // duplicate/stale completions (benign)
	RenewalsLost int64 // leases the coordinator declined to renew
	FaultsSeen   int64 // chaos faults observed via ObserveFault
}

// Stats snapshots the worker's delivery counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	completed := w.completed
	w.mu.Unlock()
	return WorkerStats{
		Completed:    completed,
		Accepted:     w.accepted.Load(),
		Rejected:     w.rejected.Load(),
		RenewalsLost: w.renewalsLost.Load(),
		FaultsSeen:   w.faultsSeen.Load(),
	}
}

// ObserveFault records an injected (or observed) network fault as a
// trace mark attached to the next completion this worker delivers.
// Wire it to chaos.Injector.OnFault. Safe for concurrent use; a no-op
// burden of one bounded buffer append when tracing is off.
func (w *Worker) ObserveFault(endpoint string, n uint64, kind string, partitioned bool) {
	w.faultsSeen.Add(1)
	m := obs.Mark{
		Name: "chaos_fault", At: time.Now().UnixNano(),
		Attrs: map[string]string{
			"endpoint": endpoint,
			"kind":     kind,
			"n":        fmt.Sprint(n),
		},
	}
	if partitioned {
		m.Attrs["partitioned"] = "true"
	}
	w.mu.Lock()
	if len(w.pendingMarks) >= maxPendingMarks {
		w.pendingMarks = w.pendingMarks[1:]
	}
	w.pendingMarks = append(w.pendingMarks, m)
	w.mu.Unlock()
}

// drainMarks takes the buffered fault marks, stamping them onto track.
func (w *Worker) drainMarks(track string) []obs.Mark {
	w.mu.Lock()
	marks := w.pendingMarks
	w.pendingMarks = nil
	w.mu.Unlock()
	for i := range marks {
		marks[i].Track = track
	}
	return marks
}

// Completed returns how many cells this worker delivered (accepted or
// not).
func (w *Worker) Completed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

// Drain asks the worker to stop taking new leases: each loop finishes
// and reports its in-flight cell, then exits. Run then returns nil —
// a drained worker is a clean exit, and its completed cells leave no
// orphaned leases behind. Safe to call from a signal handler
// goroutine, any number of times.
func (w *Worker) Drain() {
	w.draining.Store(true)
	w.mu.Lock()
	if w.drainCh == nil {
		w.drainCh = make(chan struct{})
	}
	select {
	case <-w.drainCh:
	default:
		close(w.drainCh)
	}
	w.mu.Unlock()
}

// drainChan returns the channel closed by Drain, creating it lazily.
func (w *Worker) drainChan() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.drainCh == nil {
		w.drainCh = make(chan struct{})
	}
	return w.drainCh
}

func (w *Worker) maxErrors() int {
	if w.MaxErrors > 0 {
		return w.MaxErrors
	}
	return 25
}

// backoff returns the pause before retry attempt n (1-based):
// min(BackoffCap, BackoffBase<<(n-1)) scaled by a deterministic
// jitter in [0.5, 1.0) from src.
func (w *Worker) backoff(src *rng.Source, attempt int) time.Duration {
	base := w.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cap := w.BackoffCap
	if cap <= 0 {
		cap = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d/2 + time.Duration(src.Intn(int(d/2)))
}

// jitterSource seeds loop's deterministic backoff stream from the
// worker ID: replayable per worker, decorrelated across workers.
func (w *Worker) jitterSource(loop int) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(w.ID))
	return rng.New(h.Sum64() ^ uint64(loop)*0xA3B195354A39B70D)
}

// Run polls for leases until the coordinator reports Done, the context
// is canceled, Drain finishes the in-flight work, or MaxErrors
// consecutive transport failures. A nil error means a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		w.ID = "worker"
	}
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	conc := w.Concurrency
	if conc <= 0 {
		conc = 1
	}
	errs := make(chan error, conc)
	for i := 0; i < conc; i++ {
		go func(loop int) { errs <- w.runLoop(ctx, client, loop) }(i)
	}
	var first error
	for i := 0; i < conc; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *Worker) runLoop(ctx context.Context, client *http.Client, loop int) error {
	maxErrs := w.maxErrors()
	jitter := w.jitterSource(loop)
	consecutive := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			w.Logger.Info("worker drained")
			return nil
		}
		var resp LeaseResponse
		err := w.post(ctx, client, "/lease", LeaseRequest{Worker: w.ID}, &resp)
		if err != nil {
			consecutive++
			if consecutive >= maxErrs {
				return fmt.Errorf("dist: worker %s: %d consecutive coordinator errors, last: %w", w.ID, consecutive, err)
			}
			w.Logger.Warn("lease poll failed",
				"attempt", consecutive, "max_errors", maxErrs, "error", err.Error())
			if !w.sleep(ctx, w.backoff(jitter, consecutive)) {
				return ctx.Err()
			}
			continue
		}
		consecutive = 0
		// An answer with neither a lease nor Done ends a hold in which
		// nothing became grantable: poll again at once.
		switch {
		case resp.Done:
			w.Logger.Info("coordinator drained")
			return nil
		case resp.Lease != nil:
			if err := w.serveLease(ctx, client, jitter, resp.Lease); err != nil {
				return err
			}
		}
	}
}

// sleep pauses for d, waking early on context cancellation (false) or
// drain (true — the loop top decides what draining means).
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-w.drainChan():
		return true
	case <-t.C:
		return true
	}
}

// cellTraceBuilder accumulates one leased cell's spans and marks for
// the completion payload. It is shared between the computing loop and
// the renewer goroutine, hence the mutex. A nil builder (tracing off)
// makes every method a no-op.
type cellTraceBuilder struct {
	mu    sync.Mutex
	track string
	ct    obs.CellTrace
}

func (b *cellTraceBuilder) span(name string, start, end time.Time, attrs map[string]string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.ct.Spans = append(b.ct.Spans, obs.Span{
		Track: b.track, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Attrs: attrs,
	})
	b.mu.Unlock()
}

func (b *cellTraceBuilder) mark(name string, at time.Time, attrs map[string]string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.ct.Marks = append(b.ct.Marks, obs.Mark{
		Track: b.track, Name: name, At: at.UnixNano(), Attrs: attrs,
	})
	b.mu.Unlock()
}

func (b *cellTraceBuilder) absorb(marks []obs.Mark) {
	if b == nil || len(marks) == 0 {
		return
	}
	b.mu.Lock()
	b.ct.Marks = append(b.ct.Marks, marks...)
	b.mu.Unlock()
}

// snapshot copies the accumulated trace for one delivery attempt —
// the builder keeps growing (backoff marks, late faults) between
// retries, and each POST marshals whatever is attached at that point.
func (b *cellTraceBuilder) snapshot() *obs.CellTrace {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ct := obs.CellTrace{
		Worker: b.ct.Worker,
		Spans:  append([]obs.Span(nil), b.ct.Spans...),
		Marks:  append([]obs.Mark(nil), b.ct.Marks...),
	}
	return &ct
}

// serveLease computes one leased cell and delivers the outcome,
// renewing the lease while it works. The returned error means
// delivery definitively failed (retries exhausted) — a cell
// computation failure is reported to the coordinator (which fails
// that experiment), not up the worker loop.
func (w *Worker) serveLease(ctx context.Context, client *http.Client, jitter *rng.Source, g *LeaseGrant) error {
	w.Logger.Info("lease granted",
		"experiment", g.Experiment, "cell", g.Key, "seq", g.Seq)
	// A non-empty TraceID in the grant is the coordinator's signal to
	// collect per-cell spans; the merged trace rides beside Value in
	// the completion, never inside it, so result bytes are identical
	// with tracing on or off.
	var tb *cellTraceBuilder
	if g.TraceID != "" {
		tb = &cellTraceBuilder{track: g.Experiment}
		tb.ct.Worker = w.ID
	}
	stopRenew := w.startRenewer(ctx, client, g, tb)
	defer stopRenew()
	computeStart := time.Now()
	raw, err := w.compute(g)
	tb.span("cell "+g.Key, computeStart, time.Now(),
		map[string]string{"seq": fmt.Sprint(g.Seq)})
	req := CompleteRequest{
		Worker: w.ID, Experiment: g.Experiment, Key: g.Key, Seq: g.Seq, Value: raw,
	}
	if err != nil {
		req.Error = err.Error()
		req.Value = nil
		w.Logger.Error("cell computation failed",
			"experiment", g.Experiment, "cell", g.Key, "error", err.Error())
	}
	w.mu.Lock()
	w.completed++
	w.mu.Unlock()
	return w.deliver(ctx, client, jitter, req, tb)
}

// deliver redelivers one completion until the coordinator
// acknowledges it or the retry budget runs out. Delivery continues
// through Drain: a draining worker reports its in-flight cell before
// exiting.
func (w *Worker) deliver(ctx context.Context, client *http.Client, jitter *rng.Source, req CompleteRequest, tb *cellTraceBuilder) error {
	maxErrs := w.maxErrors()
	for attempt := 1; ; attempt++ {
		if tb != nil {
			// Refresh the attached trace each attempt: backoff marks and
			// chaos faults observed since the last POST ride along.
			tb.absorb(w.drainMarks(tb.track))
			req.Trace = tb.snapshot()
		}
		var resp CompleteResponse
		err := w.post(ctx, client, "/complete", req, &resp)
		if err == nil {
			if !resp.Accepted {
				// Duplicate or stale — another holder (or a previous
				// delivery of this one whose response was lost) already
				// landed the identical bytes. Informational, not an error.
				w.rejected.Add(1)
				w.Logger.Info("completion rejected",
					"experiment", req.Experiment, "cell", req.Key, "seq", req.Seq, "reason", resp.Reason)
			} else {
				w.accepted.Add(1)
				w.Logger.Info("completion accepted",
					"experiment", req.Experiment, "cell", req.Key, "seq", req.Seq, "attempts", attempt)
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.Logger.Warn("completion post failed",
			"experiment", req.Experiment, "cell", req.Key, "attempt", attempt, "error", err.Error())
		if attempt >= maxErrs {
			return fmt.Errorf("dist: worker %s: %d consecutive coordinator errors delivering %s %s, last: %w",
				w.ID, attempt, req.Experiment, req.Key, err)
		}
		pause := w.backoff(jitter, attempt)
		tb.mark("backoff", time.Now(), map[string]string{
			"attempt": fmt.Sprint(attempt),
			"wait_ms": fmt.Sprint(pause.Milliseconds()),
		})
		if !w.sleep(ctx, pause) {
			return ctx.Err()
		}
	}
}

// startRenewer keeps g alive while its cell computes: a goroutine
// renews the lease every third of the budget until stopped — two
// chances before expiry, so one slow round trip on a loaded box does
// not forfeit the lease — and honest computations that outlast
// LeaseTimeout are not re-issued elsewhere.
// A failed renewal is ignored (the next one may succeed; at worst the
// lease expires and first-writer-wins makes the race benign); a
// Renewed=false response stops renewing — the lease is gone.
func (w *Worker) startRenewer(ctx context.Context, client *http.Client, g *LeaseGrant, tb *cellTraceBuilder) (stop func()) {
	if g.LeaseTimeoutMS <= 0 {
		return func() {}
	}
	interval := time.Duration(g.LeaseTimeoutMS) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				var resp RenewResponse
				err := w.post(ctx, client, "/lease/renew", RenewRequest{
					Worker: w.ID, Experiment: g.Experiment, Key: g.Key, Seq: g.Seq,
				}, &resp)
				if err != nil {
					w.Logger.Warn("lease renewal failed",
						"experiment", g.Experiment, "cell", g.Key, "error", err.Error())
					continue
				}
				if !resp.Renewed {
					w.renewalsLost.Add(1)
					w.Logger.Warn("lease lost",
						"experiment", g.Experiment, "cell", g.Key, "reason", resp.Reason)
					tb.mark("lease_lost", time.Now(), map[string]string{
						"cell": g.Key, "reason": resp.Reason,
					})
					return
				}
				tb.mark("lease_renewed_worker", time.Now(), map[string]string{"cell": g.Key})
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// compute reconstructs the leased cell's options and computes it
// against the worker's store, converting panics into reportable errors
// so a poisoned cell fails its experiment instead of killing the
// worker.
func (w *Worker) compute(g *LeaseGrant) (raw json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	o, err := g.Options.Options()
	if err != nil {
		return nil, err
	}
	// Never the throwaway memory store the wire options come with.
	o.Cache = w.Store
	if g.Options.Accel {
		w.cacheOnce.Do(func() { w.traceCache = kernels.NewTraceCache() })
		o.TraceCache = w.traceCache
	}
	if w.Compute != nil {
		return w.Compute(g.Experiment, o, g.Key)
	}
	return experiments.ComputeCell(g.Experiment, o, g.Key)
}

// post performs one JSON round trip under the per-request timeout.
// A non-2xx status is an error; 5xx (and transport failures) are the
// transient shapes the retry paths above back off on.
func (w *Worker) post(ctx context.Context, client *http.Client, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	timeout := w.RequestTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("dist: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
