package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcoal/internal/checkpoint"
	"rcoal/internal/experiments"
	"rcoal/internal/obs"
	"rcoal/internal/runner"
)

// TestBackoffDeterministicJitter pins the retry-pause contract: the
// sequence is a pure function of the worker ID (replayable), grows
// exponentially to the cap, and differs between workers so a shared
// outage does not retry in lockstep.
func TestBackoffDeterministicJitter(t *testing.T) {
	mk := func(id string) *Worker {
		return &Worker{ID: id, BackoffBase: 10 * time.Millisecond, BackoffCap: 80 * time.Millisecond}
	}
	seq := func(w *Worker) []time.Duration {
		src := w.jitterSource(0)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = w.backoff(src, i+1)
		}
		return out
	}
	a, b := seq(mk("alpha")), seq(mk("alpha"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same worker ID, attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	c := seq(mk("beta"))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different worker IDs produced identical backoff sequences")
	}
	for i, d := range a {
		// Attempt n's nominal pause is base<<(n-1) capped; jitter keeps it
		// in [nominal/2, nominal).
		nominal := 10 * time.Millisecond << uint(i)
		if nominal > 80*time.Millisecond {
			nominal = 80 * time.Millisecond
		}
		if d < nominal/2 || d >= nominal {
			t.Errorf("attempt %d pause %v outside [%v, %v)", i+1, d, nominal/2, nominal)
		}
	}
}

// TestRenewalKeepsSlowCell is the deadline-recompute fix: an honest
// computation outlasting LeaseTimeout renews its lease, so the cell
// is never re-issued and the slow holder's completion is accepted.
// The server runs on an injectable clock (reaping happens only inside
// lease polls, which this test controls), so scheduler load can slow
// the test down but never flip its verdict.
func TestRenewalKeepsSlowCell(t *testing.T) {
	clock := newTestClock()
	// 90ms of budget drives the worker's real-time renewal ticker
	// (every third of the budget); expiry is judged on the fake clock.
	s := NewServer(ServerConfig{LeaseTimeout: 90 * time.Millisecond, Clock: clock.Now})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0")
	release := make(chan struct{})
	slow := &Worker{
		Coordinator: srv.URL,
		ID:          "slow",
		Compute: func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			<-release
			return json.RawMessage(`"slow but honest"`), nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go slow.Run(ctx)

	renewed := func() uint64 { return s.Status().Metrics.Counters[cntLeasesRenewed] }
	waitRenewals := func(min uint64) {
		deadline := time.Now().Add(30 * time.Second)
		for renewed() < min {
			if time.Now().After(deadline) {
				t.Fatalf("renewals stalled at %d, want >= %d", renewed(), min)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitRenewals(1)

	// Push the fake clock far past the grant's original deadline: only
	// renewals can keep the lease alive now. Wait for one to land
	// after the advance (it resets the deadline ahead of fake-now),
	// then poll — nothing may be reaped or re-issued.
	clock.Advance(time.Hour)
	waitRenewals(renewed() + 1)
	var lr LeaseResponse
	postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "vulture"}, &lr)
	if lr.Lease != nil {
		t.Fatalf("renewed lease re-issued to a polling vulture: %+v", lr.Lease)
	}
	if n := s.Status().Metrics.Counters[cntLeasesExpired]; n != 0 {
		t.Fatalf("lease expired %d times despite renewals", n)
	}

	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"slow but honest"` {
		t.Errorf("result = %s, want the slow holder's value", res.raws[0])
	}
}

// TestRenewEndpointSemantics pins /lease/renew's idempotent answers.
func TestRenewEndpointSemantics(t *testing.T) {
	s := NewServer(ServerConfig{LeaseTimeout: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0")
	g := lease(t, srv.URL, "A")

	renew := func(exp, key string, seq int64) RenewResponse {
		var resp RenewResponse
		postJSON(t, srv.URL+"/lease/renew", RenewRequest{Worker: "A", Experiment: exp, Key: key, Seq: seq}, &resp)
		return resp
	}

	if r := renew("nope", g.Key, g.Seq); r.Renewed {
		t.Error("renewed a lease of an unknown experiment")
	}
	if r := renew(g.Experiment, "nope", g.Seq); r.Renewed {
		t.Error("renewed an unknown cell")
	}
	if r := renew(g.Experiment, g.Key, g.Seq+1); r.Renewed {
		t.Error("renewed a stale seq")
	}
	r1 := renew(g.Experiment, g.Key, g.Seq)
	if !r1.Renewed || r1.DeadlineUnixNano <= g.DeadlineUnixNano {
		t.Errorf("valid renewal = %+v (grant deadline %d)", r1, g.DeadlineUnixNano)
	}
	// Duplicated renewal delivery: extends again, still fine.
	if r2 := renew(g.Experiment, g.Key, g.Seq); !r2.Renewed {
		t.Errorf("duplicated renewal rejected: %s", r2.Reason)
	}

	complete(t, srv.URL, g, "A", `"done"`)
	if r := renew(g.Experiment, g.Key, g.Seq); r.Renewed || r.Reason != "already complete" {
		t.Errorf("post-completion renewal = %+v", r)
	}
	if res := <-done; res.err != nil {
		t.Fatal(res.err)
	}
}

// TestGrantCarriesDeadline: the grant itself carries the authoritative
// deadline and the budget the holder schedules renewals from.
func TestGrantCarriesDeadline(t *testing.T) {
	s := NewServer(ServerConfig{LeaseTimeout: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	done := startBatch(s, "exp", nil, nil, "cell/0")
	g := lease(t, srv.URL, "A")
	if g.LeaseTimeoutMS != time.Minute.Milliseconds() {
		t.Errorf("grant budget = %dms, want %dms", g.LeaseTimeoutMS, time.Minute.Milliseconds())
	}
	if g.DeadlineUnixNano == 0 {
		t.Error("grant carries no deadline")
	}
	complete(t, srv.URL, g, "A", `"x"`)
	if res := <-done; res.err != nil {
		t.Fatal(res.err)
	}
}

// TestDrainFinishesInFlight is the SIGTERM contract: a drained worker
// finishes and reports its in-flight cell, takes no new lease, and
// Run returns nil — no orphaned leases, no lost work.
func TestDrainFinishesInFlight(t *testing.T) {
	s := NewServer(ServerConfig{LeaseTimeout: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0", "cell/1")

	started := make(chan struct{})
	release := make(chan struct{})
	w := &Worker{
		Coordinator: srv.URL,
		ID:          "draining",
		Compute: func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			close(started)
			<-release
			return json.RawMessage(`"finished"`), nil
		},
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()

	<-started
	w.Drain()
	w.Drain() // idempotent
	close(release)

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drained worker returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	if w.Completed() != 1 {
		t.Errorf("drained worker completed %d cells, want exactly the in-flight one", w.Completed())
	}

	// The in-flight cell landed; the second was never leased and is
	// immediately grantable — nothing orphaned behind a stale deadline.
	st := s.Status()
	var exp ExperimentStatus
	for _, e := range st.Experiments {
		if e.ID == "exp" {
			exp = e
		}
	}
	if exp.Done != 1 || exp.Leased != 0 || exp.Pending != 1 {
		t.Errorf("post-drain grid = %+v, want 1 done / 0 leased / 1 pending", exp)
	}
	g := lease(t, srv.URL, "B")
	if g.Key != "cell/1" || g.Seq != 1 {
		t.Errorf("post-drain grant = %+v, want cell/1 at seq 1 (fresh lease, not a re-issue)", g)
	}
	complete(t, srv.URL, g, "B", `"rest"`)
	if res := <-done; res.err != nil {
		t.Fatal(res.err)
	}
}

// TestWorkerTextLog: a worker's lease lifecycle reaches a text logger,
// the event path -progress streams in worker mode.
func TestWorkerTextLog(t *testing.T) {
	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0")
	var buf bytes.Buffer
	w := &Worker{
		Coordinator: srv.URL,
		ID:          "talker",
		Logger:      obs.NewLogger(&buf, obs.LogConfig{}).With("worker", "talker"),
		Compute: func(string, experiments.Options, string) (json.RawMessage, error) {
			return json.RawMessage(`"v"`), nil
		},
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()
	if res := <-done; res.err != nil {
		t.Fatal(res.err)
	}
	s.Drain()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`msg="lease granted" worker=talker experiment=exp cell=cell/0`,
		`msg="completion accepted" worker=talker experiment=exp cell=cell/0`,
		`msg="coordinator drained" worker=talker`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("worker log lacks %q:\n%s", want, buf.String())
		}
	}
}

// blockPath fails every request to one path with a transport error —
// the "coordinator reachable except for completions" partial outage.
type blockPath struct {
	path    string
	blocked atomic.Bool
}

func (b *blockPath) RoundTrip(req *http.Request) (*http.Response, error) {
	if b.blocked.Load() && req.URL.Path == b.path {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("blockPath: injected outage")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerStoreAnswersReLease: a worker with a results store records
// the cell it computes, so a completion lost to a coordinator outage
// is not lost work. Worker 1 computes a cell while /complete is
// blocked and Run fails after MaxErrors; once the lease expires and
// re-issues, worker 2 on the same store delivers the identical bytes
// without computing, and a third run on that store answers the cell
// once more.
func TestWorkerStoreAnswersReLease(t *testing.T) {
	o := experiments.DefaultOptions()
	o.Samples, o.Lines = 4, 2
	const exp, key = "fig7", "fss/4"
	ref := o
	ref.Cache = nil
	want, err := experiments.ComputeCell(exp, ref, key)
	if err != nil {
		t.Fatal(err)
	}

	// Without a store the worker computes with none, not with the
	// memory store the wire options come with.
	bare := &Worker{Compute: func(_ string, wo experiments.Options, _ string) (json.RawMessage, error) {
		if wo.Cache != nil {
			t.Error("storeless worker computed against a store")
		}
		return nil, nil
	}}
	if _, err := bare.compute(&LeaseGrant{Experiment: exp, Key: key, Options: WireFrom(o)}); err != nil {
		t.Fatal(err)
	}

	// counting computes through ComputeCell, tallying store hits and
	// misses, and fails if the worker passed no store.
	var hits, misses atomic.Int64
	counting := func(id string, wo experiments.Options, k string) (json.RawMessage, error) {
		if wo.Cache == nil {
			return nil, errors.New("worker passed no store")
		}
		tel := runner.NewTelemetry()
		wo.Telemetry = tel
		raw, err := experiments.ComputeCell(id, wo, k)
		st := tel.Stats()
		hits.Add(int64(st.CacheHits))
		misses.Add(int64(st.CacheMisses))
		return raw, err
	}
	dir := t.TempDir()
	openStore := func() *checkpoint.Journal {
		store, err := experiments.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	serve := func(s *Server) <-chan execResult {
		done := make(chan execResult, 1)
		go func() {
			raws, err := NewExec(s, exp, nil, nil).ExecCells(o, fakeCells(key))
			done <- execResult{raws, err}
		}()
		return done
	}

	clock := newTestClock()
	s := NewServer(ServerConfig{LeaseTimeout: time.Minute, Clock: clock.Now})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	done := serve(s)

	outage := &blockPath{path: "/complete"}
	outage.blocked.Store(true)
	store1 := openStore()
	w1 := &Worker{
		Coordinator: srv.URL,
		ID:          "stranded",
		MaxErrors:   3,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Client:      &http.Client{Transport: outage},
		Store:       store1,
		Compute:     counting,
	}
	if err := w1.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "delivering") {
		t.Fatalf("stranded worker returned %v, want its delivery error", err)
	}
	store1.Close()
	if h, m := hits.Load(), misses.Load(); h != 0 || m != 1 {
		t.Fatalf("stranded worker: store hit/miss %d/%d, want 0/1", h, m)
	}

	// The outage heals and the stranded lease expires. A worker
	// restarted on the same store takes the re-issued lease.
	clock.Advance(2 * time.Minute)
	store2 := openStore()
	w2 := &Worker{Coordinator: srv.URL, ID: "restarted", Store: store2, Compute: counting}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w2done := make(chan error, 1)
	go func() { w2done <- w2.Run(ctx) }()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !bytes.Equal(res.raws[0], want) {
		t.Errorf("result = %s, want the stranded worker's %s", res.raws[0], want)
	}
	s.Drain()
	if err := <-w2done; err != nil {
		t.Errorf("restarted worker returned %v", err)
	}
	store2.Close()
	if h, m := hits.Load(), misses.Load(); h != 1 || m != 1 {
		t.Errorf("restarted worker: store hit/miss %d/%d total, want 1/1 (it must not compute)", h, m)
	}

	// A third run on the same store, the whole fig7 grid over four
	// concurrent loops: the stored cell is answered again, the rest are
	// computed into the store, and the report equals a local run's.
	refRes, err := experiments.Run(exp, ref)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewServer(ServerConfig{})
	srv3 := httptest.NewServer(s3.Handler())
	defer srv3.Close()
	store3 := openStore()
	defer store3.Close()
	w3 := &Worker{Coordinator: srv3.URL, ID: "again", Concurrency: 4, Store: store3, Compute: counting}
	w3done := make(chan error, 1)
	go func() { w3done <- w3.Run(ctx) }()
	o.Exec = NewExec(s3, exp, nil, nil)
	res3, err := experiments.Run(exp, o)
	if err != nil {
		t.Fatal(err)
	}
	s3.Drain()
	if err := <-w3done; err != nil {
		t.Errorf("third worker returned %v", err)
	}
	if res3.Render() != refRes.Render() {
		t.Error("third run renders differently from a local run")
	}
	n := len(experiments.Fig7Subwarps)
	if h, m, stored := hits.Load(), misses.Load(), store3.Len(); h != 2 || m != int64(n) || stored != n {
		t.Errorf("after the third run: store hit/miss %d/%d, %d stored cells; want 2/%d, %d", h, m, stored, n, n)
	}
}

// TestRetryableCompletionDelivery: a 5xx (here injected at the HTTP
// layer, as internal/chaos does) on /complete is retried until the
// coordinator accepts, and first-writer-wins still holds — the cell
// lands exactly once.
func TestRetryableCompletionDelivery(t *testing.T) {
	s := NewServer(ServerConfig{LeaseTimeout: time.Hour})
	var fail atomic.Int64
	fail.Store(3)
	var completePosts atomic.Int64
	inner := s.Handler()
	flaky := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/complete" {
			completePosts.Add(1)
			if fail.Add(-1) >= 0 {
				http.Error(rw, "injected 503", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(rw, req)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0")
	w := &Worker{
		Coordinator: srv.URL,
		ID:          "persistent",
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		Compute: func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			return json.RawMessage(`"delivered eventually"`), nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"delivered eventually"` {
		t.Errorf("result = %s", res.raws[0])
	}
	if n := completePosts.Load(); n < 4 {
		t.Errorf("saw %d /complete posts, want >= 4 (3 rejected + 1 accepted)", n)
	}
	if n := s.Status().Metrics.Counters[cntCompletions]; n != 1 {
		t.Errorf("completions counter = %d, want exactly 1", n)
	}
}

// TestStatusLivenessAndBacklog pins the autoscaling hint: PendingCells
// counts unfinished work, LiveWorkers tracks the liveness window, and
// BacklogSeconds divides the former by the live fleet's rate.
func TestStatusLivenessAndBacklog(t *testing.T) {
	clock := newTestClock()
	s := NewServer(ServerConfig{LeaseTimeout: time.Hour, LivenessWindow: 10 * time.Second, Clock: clock.Now})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0", "cell/1", "cell/2", "cell/3")
	gA := lease(t, srv.URL, "A")
	lease(t, srv.URL, "B")
	clock.Advance(2 * time.Second)
	complete(t, srv.URL, gA, "A", `"a"`)

	st := s.Status()
	if st.PendingCells != 3 {
		t.Errorf("PendingCells = %d, want 3 (1 leased + 2 pending)", st.PendingCells)
	}
	if st.LiveWorkers != 2 {
		t.Errorf("LiveWorkers = %d, want 2", st.LiveWorkers)
	}
	if st.BacklogSeconds <= 0 {
		t.Errorf("BacklogSeconds = %v, want > 0 with work pending and a live rate", st.BacklogSeconds)
	}

	// B goes silent past the window: it keeps its history but leaves
	// the live fleet.
	clock.Advance(11 * time.Second)
	var lr LeaseResponse
	postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "A"}, &lr)
	st = s.Status()
	if st.LiveWorkers != 1 {
		t.Errorf("LiveWorkers after silence = %d, want 1", st.LiveWorkers)
	}
	for _, w := range st.Workers {
		if w.ID == "B" && w.Live {
			t.Error("silent worker B still marked live")
		}
	}

	s.Close()
	if res := <-done; res.err == nil {
		t.Fatal("closed server's batch reported success")
	}
}
