package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcoal/internal/experiments"
	"rcoal/internal/obs"
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

// TestDegradedParkAndReplay is the graceful-degradation contract: a
// worker that computes a cell but cannot deliver it within
// DegradedAfter parks the completion in its local journal and exits
// cleanly; the next run with the same journal replays it to the
// coordinator, and the batch finishes with the parked value.
func TestDegradedParkAndReplay(t *testing.T) {
	s := NewServer(ServerConfig{LeaseTimeout: time.Hour})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	done := startBatch(s, "exp", nil, nil, "cell/0")

	parkPath := filepath.Join(t.TempDir(), "degraded.journal")
	outage := &blockPath{path: "/complete"}
	outage.blocked.Store(true)
	w1 := &Worker{
		Coordinator:   srv.URL,
		ID:            "stranded",
		MaxErrors:     100000,
		BackoffBase:   time.Millisecond,
		BackoffCap:    5 * time.Millisecond,
		DegradedPath:  parkPath,
		DegradedAfter: 20 * time.Millisecond,
		Client:        &http.Client{Transport: outage},
		Compute: func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			return json.RawMessage(`"computed in the dark"`), nil
		},
	}
	if err := w1.Run(context.Background()); err != nil {
		t.Fatalf("degraded worker returned %v, want clean exit", err)
	}
	if w1.Parked() != 1 {
		t.Fatalf("parked %d completions, want 1", w1.Parked())
	}

	// The outage heals; a new worker process with the same degraded
	// journal replays the parked completion before polling.
	w2 := &Worker{
		Coordinator:  srv.URL,
		ID:           "recovered",
		DegradedPath: parkPath,
		Compute: func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			return nil, fmt.Errorf("nothing should need computing")
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w2done := make(chan error, 1)
	go func() { w2done <- w2.Run(ctx) }()

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"computed in the dark"` {
		t.Errorf("result = %s, want the parked value", res.raws[0])
	}
	s.Drain()
	if err := <-w2done; err != nil {
		t.Errorf("replaying worker returned %v", err)
	}

	// Replay is idempotent: a third run with the same journal finds the
	// completion already delivered and nothing breaks.
	w3 := &Worker{Coordinator: srv.URL, ID: "again", DegradedPath: parkPath}
	if err := w3.Run(context.Background()); err != nil {
		t.Errorf("idempotent replay returned %v", err)
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
